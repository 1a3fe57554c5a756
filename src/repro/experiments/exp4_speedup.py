"""Exp 4 (Figs 8–9): index & query speedup vs number of threads.

The paper sweeps 1–20 threads on FB, GO, GW, WI and reports 16.7 / 11.8 /
11.9 / 15.4 index speedups at 20 threads. Here the per-round per-vertex work
of the *real* PSPC run (candidate entries processed — ``BuildStats.work`` of
``build_pspc_local``) is replayed through the §III-F
schedule model (see ``repro/sim/threads.py`` and DESIGN.md §3 for why the
sweep is modelled rather than re-run: a live ``local[*]`` session cannot vary
its core count).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.landmark import build_landmarks
from repro.core.pspc_local import build_pspc_local
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


def run(
    spark=None,  # unused; kept for a uniform job signature
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
        for t in threads:
            rows.append(
                {
                    "dataset": code,
                    "threads": t,
                    "index_speedup": round(idx_curve[t], 2),
                    "query_speedup": round(q_curve[t], 2),
                }
            )
    return emit(pd.DataFrame(rows), "exp4_speedup", save)
