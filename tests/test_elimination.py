"""Label Elimination and the rank-space rounds. The hub-distance table and
its ``searchsorted`` fallback eliminate the same entries, PSPC⁺'s Spark
tasks count what the driver counts, every label map lists its hubs by
(distance, hub id), and the work log and the counters equal their
definitions, computed here from the finished index under every order."""
import numpy as np
import pytest

from repro.core import pspc_local
from repro.core.landmark import LandmarkIndex, build_landmarks
from repro.core.pspc_local import build_pspc_local, landmark_prefix
from repro.core.pspc_spark import build_pspc_spark
from tests.test_hpspc import ORDERS
from tests.util import disjoint_union, small_graph

COUNTERS = ("rounds", "eliminated", "candidates_total", "pruned_by_landmark", "pruned_by_query")


def _weights(g):
    return np.random.default_rng(5).integers(1, 4, g.n).astype(np.float64)


def items(index) -> list[list]:
    """Every map's entries in its own order."""
    return [list(m.items()) for m in index.maps]


def assert_same_counts(a, b) -> None:
    for name in COUNTERS:
        assert getattr(a, name) == getattr(b, name), name
    assert len(a.work) == len(b.work)
    assert all(np.array_equal(x, y) for x, y in zip(a.work, b.work))


def by_definition(g, index):
    """``(work, eliminated, candidates)`` from the index alone. Round ``d``
    pulls, along each edge ``u – v``, the entries of ``L(v)`` at distance
    ``d - 1`` whose hub ranks above ``u`` (Lemma 3). An entry is eliminated
    iff its hub is in ``L(u)`` below distance ``d``; the others merge into
    one candidate per ``(u, hub, d)``."""
    rank = index.rank
    rounds = max(d for m in index.maps for d, _ in m.values()) + 1  # ending with the empty round
    work = np.zeros((rounds, g.n), dtype=np.int64)
    eliminated, candidates = 0, set()
    for u, v in g.symmetric_edges().tolist():
        for w, (dv, _) in index.maps[v].items():
            if rank[w] < rank[u]:
                work[dv, u] += 1
                held = index.maps[u].get(w)
                if held is not None and held[0] < dv + 1:
                    eliminated += 1
                else:
                    candidates.add((u, w, dv + 1))
    return work, eliminated, len(candidates)


@pytest.mark.parametrize("landmarks", [0, 4])
@pytest.mark.parametrize("order_name", sorted(ORDERS))
def test_counters_equal_their_definition(order_name, landmarks):
    g = small_graph("er", 3, n=36)
    lm = build_landmarks(g, landmarks) if landmarks else None
    index, stats = build_pspc_local(g, ORDERS[order_name](g), landmarks=lm)
    work, eliminated, candidates = by_definition(g, index)
    assert np.array_equal(np.array(stats.work), work)
    assert stats.eliminated == eliminated > 0
    assert stats.candidates_total == candidates
    emitted = stats.candidates_total - stats.pruned_by_landmark - stats.pruned_by_query
    assert emitted == index.n_entries - g.n


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("order_name", sorted(ORDERS))
def test_table_and_fallback_eliminate_alike(monkeypatch, order_name, weighted):
    g = disjoint_union(small_graph("ba", 2, n=24), small_graph("ws", 2, n=16))
    order = ORDERS[order_name](g)
    lm = build_landmarks(g, 5)
    weights = _weights(g) if weighted else None
    table, table_stats = build_pspc_local(g, order, landmarks=lm, weights=weights)
    monkeypatch.setattr(pspc_local, "TABLE_BYTES", 0)
    probe, probe_stats = build_pspc_local(g, order, landmarks=lm, weights=weights)
    assert table_stats.eliminated > 0
    assert_same_counts(table_stats, probe_stats)
    assert items(table) == items(probe)


@pytest.mark.parametrize("order_name", sorted(ORDERS))
def test_spark_tasks_count_like_the_driver(spark, order_name):
    """Every round as a Spark job: its tasks' counters, work and label maps
    equal the driver kernel's."""
    g = small_graph("er", 2, n=36)
    order = ORDERS[order_name](g)
    local, local_stats = build_pspc_local(g, order, landmarks=build_landmarks(g, 4))
    sp, sp_stats = build_pspc_spark(spark, g, order, n_landmarks=4, driver_pulls=0)
    assert all(sp_stats.on_spark)
    assert_same_counts(local_stats, sp_stats)
    assert items(sp) == items(local)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("order_name", sorted(ORDERS))
def test_maps_list_hubs_by_distance_then_id(order_name, weighted):
    """``query_single`` sums a pair's counts in map order, so the order is
    part of the answer: by distance, then hub id, whatever the rank."""
    g = small_graph("ws", 1, n=36)
    index, _ = build_pspc_local(g, ORDERS[order_name](g), weights=_weights(g) if weighted else None)
    for m in index.maps:
        keys = [(d, w) for w, (d, _) in m.items()]
        assert keys == sorted(keys)


@pytest.mark.parametrize(
    "landmarks,k",
    [([], 0), ([0], 1), ([2, 0, 1], 3), ([0, 2, 3], 1), ([1, 2], 0), ([3, 1, 0, 4], 2)],
)
def test_landmark_prefix_counts_leading_landmark_ranks(landmarks, k):
    lm = LandmarkIndex(landmarks=np.array(landmarks, dtype=np.int64), dist=np.zeros((5, len(landmarks)), dtype=np.int32))
    assert landmark_prefix(lm) == k
