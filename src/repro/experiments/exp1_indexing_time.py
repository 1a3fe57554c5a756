"""Exp 1 (Fig 5): indexing time for HP-SPC_s, PSPC (1 thread) and PSPC⁺.

Per the paper, the reported time *includes* the ordering time (and the
landmark phase for the variants that use it). Times are in milliseconds, the
median of ``REPS`` builds on a bench-scale row and one build on a
``SCALE_ROWS`` row. PSPC⁺ here is the Spark distributed build on
``local[*]``, timed twice: with its executor gates (``PSPC+``: rounds below
``DRIVER_ROUND_PULLS`` run on the driver, on its thread pool from
``THREAD_ROUND_PULLS``) and with every round forced onto Spark
(``PSPC+_spark``). The two sequential algorithms are the driver-side
engines. The paper's headline claims reproduced by this table: PSPC beats
HP-SPC_s single-threaded on most datasets, and PSPC⁺ beats both.
``SCALE_ROWS`` adds rows past the bench scale, where rounds grow large
enough for Spark to pay.
"""
from __future__ import annotations

from collections.abc import Sequence

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
    median_ms,
    order_for,
    warm_up_spark_build,
)
from repro.graphgen.datasets import load


#: (dataset, scale) rows past the bench scale: FB@1.0 and GW@1.0 run their
#: mid-size rounds on the driver's thread pool, RD@1.0's 45 small rounds all
#: on one thread, and FB@3.0's largest rounds (7.8M and 11.0M pulls), which
#: Spark won against one driver thread, on the pool
SCALE_ROWS = [("FB", 1.0), ("GW", 1.0), ("RD", 1.0), ("FB", 3.0)]
#: builds per engine on a bench-scale row (tens of ms each, so one build
#: cannot separate the engines); a ``SCALE_ROWS`` row builds once
REPS = 3


def run(
    spark: SparkSession,
    codes: list[str] | None = None,
    scale: float = DEFAULT_SCALE,
    n_landmarks: int = DEFAULT_LANDMARKS,
    delta: int = DEFAULT_DELTA,
    save: bool = True,
    scale_rows: Sequence[tuple[str, float]] = (),
) -> pd.DataFrame:
    """One row per dataset in ``codes`` at ``scale``, each engine's time the
    median of ``REPS`` builds, then one per ``(dataset, scale)`` of
    ``scale_rows``, each engine built once."""
    rows = []
    warm_up_spark_build(spark, n_landmarks)
    graphs = [(code, scale, g, REPS) for code, g in load_datasets(codes, scale).items()]
    graphs += [(code, s, load(code, s), 1) for code, s in scale_rows]
    for code, s, g, k in graphs:

        def order():
            return order_for(g, "hybrid", delta)

        t_hpspc, hp = median_ms(k, lambda: build_hpspc(g, order()))
        t_pspc, (ps, _) = median_ms(
            k, lambda: build_pspc_local(g, order(), landmarks=build_landmarks(g, n_landmarks))
        )
        t_pspc_plus, (sp, _) = median_ms(
            k, lambda: build_pspc_spark(spark, g, order(), n_landmarks=n_landmarks)
        )
        t_forced, (forced, _) = median_ms(
            k, lambda: build_pspc_spark(spark, g, order(), n_landmarks=n_landmarks, driver_pulls=0)
        )
        assert hp.sorted_tuples() == ps.sorted_tuples() == sp.sorted_tuples() == forced.sorted_tuples(), code
        rows.append(
            {
                "dataset": code,
                "scale": s,
                "n": g.n,
                "m": g.m,
                "builds": k,
                "HP-SPC_s_ms": t_hpspc,
                "PSPC_ms": t_pspc,
                "PSPC+_ms": t_pspc_plus,
                "PSPC+_spark_ms": t_forced,
                "PSPC_vs_HP": round(t_hpspc / t_pspc, 2),
            }
        )
    return emit(pd.DataFrame(rows), "exp1_indexing_time", save)
