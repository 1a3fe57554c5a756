"""Exp 4 (Figs 8–9): index & query speedup vs number of threads.

The paper sweeps 1–20 threads on FB, GO, GW, WI and reports 16.7 / 11.8 /
11.9 / 15.4 index speedups at 20 threads. Here the per-round per-vertex work
of the *real* PSPC run (candidate entries processed — ``BuildStats.work`` of
``build_pspc_local``) is replayed through the §III-F
schedule model (see ``repro/sim/threads.py``). Up to the machine's 4 cores
the sweep is also measured: PSPC⁺'s label construction with its rounds on
the driver (``driver_pulls=math.inf``), the rounds at or above
``THREAD_ROUND_PULLS`` on ``parallelism`` = 1, 2 or 4 threads, each time
the median of ``REPS`` builds interleaved across the thread counts.
"""
from __future__ import annotations

import math
import statistics

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.landmark import build_landmarks
from repro.core.pspc_local import build_pspc_local
from repro.core.pspc_spark import build_pspc_spark
from repro.core.query import random_pairs
from repro.experiments.common import (
    DEFAULT_DELTA,
    DEFAULT_LANDMARKS,
    DEFAULT_SCALE,
    THREAD_COUNTS,
    emit,
    load_datasets,
    order_for,
)
from repro.sim.threads import simulate_query_speedup, speedup_curve

EXP4_CODES = ["FB", "GO", "GW", "WI"]
#: thread counts measured on the machine (its cores); the rest are modelled
MEASURED_THREADS = [1, 2, 4]
#: builds per measured thread count
REPS = 7


def measured_lc_ms(spark: SparkSession, g, order: np.ndarray, n_landmarks: int, threads: list[int]) -> dict[int, float]:
    """``{t: ms}``: the median label-construction time of PSPC⁺ on the
    driver with ``parallelism=t``, the builds of all ``t`` interleaved."""
    times: dict[int, list[float]] = {t: [] for t in threads}
    for _ in range(REPS):
        for t in threads:
            _, stats = build_pspc_spark(spark, g, order, n_landmarks=n_landmarks, driver_pulls=math.inf, parallelism=t)
            times[t].append(stats.t_construction)
    return {t: 1000 * statistics.median(ts) for t, ts in times.items()}


def run(
    spark: SparkSession,
    codes: list[str] | None = None,
    scale: float = DEFAULT_SCALE,
    n_landmarks: int = DEFAULT_LANDMARKS,
    delta: int = DEFAULT_DELTA,
    thread_counts: list[int] | None = None,
    n_queries: int = 10_000,
    save: bool = True,
) -> pd.DataFrame:
    threads = thread_counts or THREAD_COUNTS
    rows = []
    for code, g in load_datasets(codes or EXP4_CODES, scale).items():
        order = order_for(g, "hybrid", delta)
        lm = build_landmarks(g, n_landmarks)
        index, stats = build_pspc_local(g, order, landmarks=lm)
        rank = index.rank
        idx_curve = speedup_curve(stats.work, threads, "dynamic", rank, g.n)
        pairs = random_pairs(g.n, n_queries, seed=7)
        lens = np.array([len(m) for m in index.maps])
        costs = np.minimum(lens[pairs[:, 0]], lens[pairs[:, 1]]).astype(np.float64)
        q_curve = simulate_query_speedup(costs, threads)
        lc_ms = measured_lc_ms(spark, g, order, n_landmarks, [t for t in threads if t in MEASURED_THREADS])
        for t in threads:
            rows.append(
                {
                    "dataset": code,
                    "threads": t,
                    "index_speedup": round(idx_curve[t], 2),
                    "measured_lc_ms": round(lc_ms[t], 1) if t in lc_ms else None,
                    "measured_index_speedup": round(lc_ms[1] / lc_ms[t], 2) if t in lc_ms and 1 in lc_ms else None,
                    "query_speedup": round(q_curve[t], 2),
                }
            )
    return emit(pd.DataFrame(rows), "exp4_speedup", save)
