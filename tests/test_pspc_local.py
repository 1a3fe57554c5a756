"""PSPC (single-thread engine): must rebuild exactly the HP-SPC_s index —
the paper's central equivalence — plus landmark invariance, work stats and
the weighted (multiplicity) mode."""
import numpy as np
import pytest

from repro.core.bfs_oracle import all_pairs_spc, spc_from
from repro.core.hpspc import build_hpspc
from repro.core.landmark import build_landmarks
from repro.core.pspc_local import build_pspc_local
from repro.core.query import query_single
from repro.graph.gframe import Graph
from repro.ordering.degree import degree_order
from repro.ordering.hybrid import hybrid_order
from tests.util import small_graph


@pytest.mark.parametrize("kind", ["er", "ba", "ws", "grid", "rmat"])
@pytest.mark.parametrize("seed", range(4))
def test_labels_identical_to_hpspc(kind, seed):
    g = small_graph(kind, seed, n=35)
    order = degree_order(g)
    hp = build_hpspc(g, order)
    ps, _ = build_pspc_local(g, order)
    assert hp.sorted_tuples() == ps.sorted_tuples()


@pytest.mark.parametrize("seed", range(4))
def test_labels_identical_hybrid_order(seed):
    g = small_graph("er", seed, n=35)
    order = hybrid_order(g, 3)
    hp = build_hpspc(g, order)
    ps, _ = build_pspc_local(g, order)
    assert hp.sorted_tuples() == ps.sorted_tuples()


@pytest.mark.parametrize("k", [1, 3, 10, 50])
@pytest.mark.parametrize("seed", range(2))
def test_landmark_filter_never_changes_index(k, seed):
    g = small_graph("ba", seed, n=40)
    order = degree_order(g)
    base, _ = build_pspc_local(g, order)
    lm = build_landmarks(g, k)
    filt, stats = build_pspc_local(g, order, landmarks=lm)
    assert base.sorted_tuples() == filt.sorted_tuples()
    # With landmarks, some pruning moves off the query path.
    assert stats.pruned_by_landmark >= 0


@pytest.mark.parametrize("seed", range(3))
def test_queries_exact(seed):
    g = small_graph("ws", seed, n=30)
    index, _ = build_pspc_local(g, degree_order(g))
    D, C = all_pairs_spc(g)
    for s in range(g.n):
        for t in range(g.n):
            d, c = query_single(index, s, t)
            assert d == D[s, t] and abs(c - C[s, t]) < 1e-6


def test_rounds_bounded_by_diameter():
    from repro.graph.algorithms import eccentricity

    g = small_graph("grid", 0, n=49)
    _, stats = build_pspc_local(g, degree_order(g))
    ecc0 = eccentricity(g, 0)
    assert stats.rounds <= 2 * ecc0 + 1  # rounds ≤ diameter


def test_work_stats_cover_candidates():
    g = small_graph("er", 1, n=40)
    _, stats = build_pspc_local(g, degree_order(g))
    assert len(stats.work) == stats.rounds + 1  # ends with the empty round
    assert all(r.shape == (g.n,) for r in stats.work)
    total = sum(int(r.sum()) for r in stats.work)
    assert total > 0
    assert stats.candidates_total <= total  # merged candidates ≤ raw pulls


def test_weighted_all_ones_matches_unweighted():
    g = small_graph("ba", 0, n=35)
    order = degree_order(g)
    a, _ = build_pspc_local(g, order)
    b, _ = build_pspc_local(g, order, weights=np.ones(g.n))
    assert a.sorted_tuples() == b.sorted_tuples()


def test_weighted_counts_match_weighted_oracle():
    """Weighted index query == weighted BFS oracle on a contracted shape."""
    g = Graph.from_edges(np.array([[0, 1], [1, 2], [2, 3], [0, 4], [4, 3]]), n=5)
    w = np.array([1.0, 2.0, 1.0, 1.0, 3.0])
    index, _ = build_pspc_local(g, degree_order(g), weights=w)
    for s in range(g.n):
        dref, cref = spc_from(g, s, weights=w)
        for t in range(g.n):
            d, c = query_single(index, s, t, weights=w)
            assert d == dref[t] and abs(c - cref[t]) < 1e-9, (s, t)


def test_empty_frontier_terminates():
    g = Graph.from_edges(np.array([[0, 1]]), n=2)
    index, stats = build_pspc_local(g, np.array([0, 1]))
    assert stats.rounds == 1
    assert query_single(index, 0, 1) == (1, 1.0)
