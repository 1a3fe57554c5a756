"""Exp 8 (Fig 13): breakdown of PSPC⁺ indexing time into Order / LL / LC.

Order = vertex ordering, LL = landmark labeling (BFS from landmarks), LC =
label construction (the distance rounds), each in ms of one build. The
paper's takeaway — LC dominates — is what the fractions here reproduce.
Uses the Spark builder's phase
timers; ordering is timed around the order function itself. Every round is
forced onto Spark (``driver_pulls=0``), so LC is the distributed builder's;
the table counts the rounds each executor ran.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.pspc_spark import build_pspc_spark
from repro.experiments.common import (
    DEFAULT_DELTA,
    DEFAULT_LANDMARKS,
    DEFAULT_SCALE,
    emit,
    load_datasets,
    order_for,
    timed,
    warm_up_spark_build,
)


def run(
    spark: SparkSession,
    codes: list[str] | None = None,
    scale: float = DEFAULT_SCALE,
    n_landmarks: int = DEFAULT_LANDMARKS,
    delta: int = DEFAULT_DELTA,
    save: bool = True,
) -> pd.DataFrame:
    rows = []
    warm_up_spark_build(spark, n_landmarks)
    for code, g in load_datasets(codes, scale).items():
        with timed() as t:
            order = order_for(g, "hybrid", delta)
        t_order = t()
        _, stats = build_pspc_spark(spark, g, order, n_landmarks=n_landmarks, driver_pulls=0)
        total = t_order + stats.t_landmarks + stats.t_construction
        rows.append(
            {
                "dataset": code,
                "order_ms": round(1000 * t_order, 1),
                "LL_ms": round(1000 * stats.t_landmarks, 1),
                "LC_ms": round(1000 * stats.t_construction, 1),
                "LC_frac": round(stats.t_construction / total, 2),
                "rounds": stats.rounds,
                "spark_rounds": sum(stats.on_spark),
                "driver_rounds": len(stats.on_spark) - sum(stats.on_spark),
            }
        )
    return emit(pd.DataFrame(rows), "exp8_breakdown", save)
