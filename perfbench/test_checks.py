"""The benchmark's output checks pass on the program's output and fail on a
corrupted copy of it.

Run from the repository root (no Spark session is started):

    python3 -m pytest perfbench/test_checks.py -q
"""
from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    ExactSPC,
    adjacency,
    bfs_counts,
    check_answers,
    check_batch,
    check_espc,
    check_same_index,
    check_totals,
)
from repro.core.hpspc import build_hpspc  # noqa: E402
from repro.core.pspc_local import build_pspc_local  # noqa: E402
from repro.core.pspc_spark import SparkBuildStats  # noqa: E402
from repro.core.query import query_single  # noqa: E402
from repro.graphgen.datasets import load  # noqa: E402
from repro.ordering.hybrid import hybrid_order  # noqa: E402


@pytest.fixture(scope="module")
def built():
    g = load("FB", 0.05)
    order = hybrid_order(g, 5)
    index, stats = build_pspc_local(g, order)
    adj = adjacency(g.n, g.edges)
    pairs = np.random.default_rng(7).integers(0, g.n, (500, 2))
    return g, index, stats, adj, ExactSPC(adj), pairs


def spark_stats_of(index) -> SparkBuildStats:
    """What PSPC⁺ reports for ``index``: labels emitted per distance round."""
    per_d: dict[int, int] = {}
    for m in index.maps:
        for d, _ in m.values():
            if d:
                per_d[d] = per_d.get(d, 0) + 1
    return SparkBuildStats(rounds=max(per_d), round_candidates=[per_d[d] for d in sorted(per_d)] + [0])


def answers(index, pairs):
    got = [query_single(index, s, t) for s, t in pairs.tolist()]
    return [d for d, _ in got], [c for _, c in got]


def batch_of(index, pairs) -> pd.DataFrame:
    dists, counts = answers(index, pairs)
    return pd.DataFrame({"qid": np.arange(len(pairs)), "dist": dists, "spc": counts})


def corrupt_one_count(index):
    """A copy of ``index`` with one non-self count raised by one; returns the
    copy and the pair ``(u, w)`` whose answer it changes."""
    bad = copy.deepcopy(index)
    u, w, d, c = next((u, w, d, c) for u, m in enumerate(bad.maps) for w, (d, c) in m.items() if d > 0 and c > 1)
    bad.maps[u][w] = (d, c + 1.0)
    return bad, (u, w)


def test_reference_counts_exactly_beyond_float64():
    side = 40
    vid = np.arange(side * side).reshape(side, side)
    edges = np.concatenate([
        np.stack([vid[:, :-1].ravel(), vid[:, 1:].ravel()], axis=1),
        np.stack([vid[:-1, :].ravel(), vid[1:, :].ravel()], axis=1),
    ])
    dist, cnt = bfs_counts(adjacency(side * side, edges), 0)
    assert dist[side * side - 1] == 78
    assert cnt[side * side - 1] == math.comb(78, 39) == 27217014869199032015600


def test_checks_pass_on_program_output(built):
    g, index, stats, adj, spc, pairs = built
    ref = build_hpspc(g, hybrid_order(g, 5))
    assert check_same_index("build_pspc_local", index.sorted_tuples(), ref.sorted_tuples()) == []
    assert check_espc(adj, index.rank, index.maps, spc) == []
    assert check_answers(spc, pairs, *answers(index, pairs)) == []
    assert check_batch(spc, pairs, batch_of(index, pairs)) == []
    assert check_totals(g.n, index.n_entries, stats, spark_stats_of(index)) == []


def test_every_check_fails_on_a_corrupted_count(built):
    g, index, stats, adj, spc, pairs = built
    bad, (u, w) = corrupt_one_count(index)
    assert check_espc(adj, bad.rank, bad.maps, spc)
    assert check_same_index("corrupted", bad.sorted_tuples(), index.sorted_tuples())
    hit = np.array([[u, w]])
    assert check_answers(spc, hit, *answers(bad, hit))
    assert check_batch(spc, hit, batch_of(bad, hit))


def test_every_check_fails_on_a_dropped_entry(built):
    g, index, stats, adj, spc, pairs = built
    bad = copy.deepcopy(index)
    u, w = next((u, w) for u, m in enumerate(bad.maps) for w, (d, _) in m.items() if d > 0)
    del bad.maps[u][w]
    assert check_espc(adj, bad.rank, bad.maps, spc)
    assert check_same_index("dropped", bad.sorted_tuples(), index.sorted_tuples())
    assert check_totals(g.n, bad.n_entries, stats, spark_stats_of(index))
    assert check_totals(g.n, index.n_entries, stats, spark_stats_of(bad))


@pytest.mark.parametrize("how", ["count", "dist", "drop", "duplicate"])
def test_batch_check_fails_on_one_corrupted_row(built, how):
    g, index, stats, adj, spc, pairs = built
    answer = batch_of(index, pairs)
    i = int(np.flatnonzero(pairs[:, 0] != pairs[:, 1])[0])
    if how == "count":
        answer.loc[i, "spc"] += 1
    elif how == "dist":
        answer.loc[i, "dist"] += 1
    elif how == "drop":
        answer = answer.drop(index=i)
    else:
        answer = pd.concat([answer, answer.iloc[[i]]])
    assert check_batch(spc, pairs, answer)
