"""Exp 1 (Fig 5): indexing time for HP-SPC_s, PSPC (1 thread) and PSPC⁺.

Per the paper, the reported time *includes* the ordering time (and the
landmark phase for the variants that use it). PSPC⁺ here is the Spark
distributed build on ``local[*]``; the two sequential algorithms are the
driver-side engines. The paper's headline claims reproduced by this table:
PSPC beats HP-SPC_s single-threaded on most datasets, and PSPC⁺ beats both.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from repro.core.hpspc import build_hpspc
from repro.core.landmark import build_landmarks
from repro.core.pspc_local import build_pspc_local
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

        with timed() as t:
            hp = build_hpspc(g, order)
        t_hpspc = t_order + t()

        with timed() as t:
            lm = build_landmarks(g, n_landmarks)
            ps, _ = build_pspc_local(g, order, landmarks=lm)
        t_pspc = t_order + t()

        with timed() as t:
            sp, _ = build_pspc_spark(spark, g, order, n_landmarks=n_landmarks)
        t_pspc_plus = t_order + t()

        assert hp.sorted_tuples() == ps.sorted_tuples() == sp.sorted_tuples(), code
        rows.append(
            {
                "dataset": code,
                "n": g.n,
                "m": g.m,
                "HP-SPC_s": round(t_hpspc, 2),
                "PSPC": round(t_pspc, 2),
                "PSPC+": round(t_pspc_plus, 2),
                "PSPC_vs_HP": round(t_hpspc / t_pspc, 2),
            }
        )
    return emit(pd.DataFrame(rows), "exp1_indexing_time", save)
