"""Exp 7 (Fig 12): effect of the number of landmarks on indexing time.

Landmarks only affect construction speed (the filter is sound, so index size
and query time are untouched — asserted in tests); the paper reports a
U-shape: more landmarks prune more until the per-candidate filter cost and
the landmark BFS phase outweigh the savings.
"""
from __future__ import annotations

import pandas as pd

from repro.core.landmark import build_landmarks
from repro.core.pspc_local import build_pspc_local
from repro.experiments.common import (
    DEFAULT_DELTA,
    DEFAULT_SCALE,
    emit,
    load_datasets,
    median_ms,
    order_for,
)

EXP7_CODES = ["FB", "GW", "WI", "YT"]
LANDMARK_COUNTS = [0, 10, 50, 100, 200, 400]
#: builds per landmark count; the bench-scale builds differ by a few ms
REPS = 5


def run(
    spark=None,
    codes: list[str] | None = None,
    scale: float = DEFAULT_SCALE,
    landmark_counts: list[int] | None = None,
    delta: int = DEFAULT_DELTA,
    save: bool = True,
) -> pd.DataFrame:
    """One row per dataset and landmark count; ``index_ms`` is the median of
    ``REPS`` builds (landmark BFS + label construction). ``eliminated``
    counts pulled entries dropped before merging, and the landmark and query
    prunes split the merged ``candidates`` that are not emitted."""
    rows = []
    for code, g in load_datasets(codes or EXP7_CODES, scale).items():
        order = order_for(g, "hybrid", delta)
        for k in landmark_counts or LANDMARK_COUNTS:
            t, (index, stats) = median_ms(
                REPS, lambda: build_pspc_local(g, order, landmarks=build_landmarks(g, k) if k > 0 else None)
            )
            rows.append(
                {
                    "dataset": code,
                    "landmarks": k,
                    "index_ms": t,
                    "eliminated": stats.eliminated,
                    "candidates": stats.candidates_total,
                    "pruned_by_landmark": stats.pruned_by_landmark,
                    "pruned_by_query": stats.pruned_by_query,
                    "entries": index.n_entries,
                }
            )
    return emit(pd.DataFrame(rows), "exp7_landmarks", save)
