"""Exp 5 (Fig 10): ablation of the acceleration techniques at 20 threads.

Three sub-tables, matching the paper's sub-figures:

* (a) **LL vs NLL** — PSPC indexing time with and without landmark-based
  filtering (paper: LL slightly faster);
* (b) **dynamic vs static schedule** — modelled 20-thread index time from the
  measured work vectors under the two §III-F plans (paper: dynamic somewhat
  faster);
* (c) **node order** — indexing time (order time included) under degree,
  tree-decomposition and hybrid orders (paper: hybrid fastest).
"""
from __future__ import annotations

import pandas as pd

from repro.core.landmark import build_landmarks
from repro.core.pspc_local import build_pspc_local
from repro.experiments.common import (
    DEFAULT_DELTA,
    DEFAULT_LANDMARKS,
    DEFAULT_SCALE,
    emit,
    load_datasets,
    median_ms,
    order_for,
)
from repro.sim.threads import simulate_index_time

EXP5_CODES = ["FB", "GW", "WI", "YT"]
#: builds per timed variant; the bench-scale builds differ by a few ms
REPS = 5


def run(
    spark=None,
    codes: list[str] | None = None,
    scale: float = DEFAULT_SCALE,
    n_landmarks: int = DEFAULT_LANDMARKS,
    delta: int = DEFAULT_DELTA,
    save: bool = True,
) -> pd.DataFrame:
    """One row per dataset; every ``_ms`` column is the median of ``REPS``
    builds."""
    rows = []
    for code, g in load_datasets(codes or EXP5_CODES, scale).items():
        order = order_for(g, "hybrid", delta)
        # (a) landmark labeling on/off (the landmark BFS is timed with LL).
        t_ll, (index, stats_ll) = median_ms(
            REPS, lambda: build_pspc_local(g, order, landmarks=build_landmarks(g, n_landmarks))
        )
        t_nll, _ = median_ms(REPS, lambda: build_pspc_local(g, order, landmarks=None))
        # (b) schedule plans, modelled at 20 threads on the measured work.
        t20_dyn = simulate_index_time(stats_ll.work, 20, "dynamic", index.rank, g.n)
        t20_sta = simulate_index_time(stats_ll.work, 20, "static", index.rank, g.n)
        # (c) node orders (ordering time included, as in Exp 1).
        lm = build_landmarks(g, n_landmarks)
        t_orders = {
            scheme: median_ms(REPS, lambda: build_pspc_local(g, order_for(g, scheme, delta), landmarks=lm))[0]
            for scheme in ("degree", "treedec", "hybrid")
        }
        rows.append(
            {
                "dataset": code,
                "LL_ms": t_ll,
                "NLL_ms": t_nll,
                "sched_dynamic_20t": round(t20_dyn, 0),
                "sched_static_20t": round(t20_sta, 0),
                "order_degree_ms": t_orders["degree"],
                "order_treedec_ms": t_orders["treedec"],
                "order_hybrid_ms": t_orders["hybrid"],
            }
        )
    return emit(pd.DataFrame(rows), "exp5_ablation", save)
