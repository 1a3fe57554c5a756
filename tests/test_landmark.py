"""Landmark index: bound soundness (never below the true distance), tightness
when a landmark lies on a shortest path, checked on all pairs at once."""
import numpy as np
import pytest

from repro.core.bfs_oracle import all_pairs_spc
from repro.core.hpspc import build_hpspc
from repro.core import landmark
from repro.core.landmark import build_landmarks
from repro.core.pspc_local import build_pspc_local
from repro.graph.algorithms import connected_components
from repro.ordering.degree import degree_order
from tests.util import disjoint_union, path_graph, small_graph


def all_bounds(lm, n):
    """``bound_matrix`` over every pair ``(s, t)``, as an ``n × n`` matrix."""
    s, t = np.divmod(np.arange(n * n), n)
    return lm.bound_matrix(s, t).reshape(n, n)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("k", [1, 5, 20])
def test_bound_is_upper_bound(seed, k):
    g = small_graph("er", seed, n=30)
    lm = build_landmarks(g, k)
    D, _ = all_pairs_spc(g)
    assert (all_bounds(lm, g.n) >= D).all()


@pytest.mark.parametrize("seed", range(3))
def test_bound_tight_at_landmarks(seed):
    g = small_graph("ba", seed, n=30)
    lm = build_landmarks(g, 4)
    D, _ = all_pairs_spc(g)
    B = all_bounds(lm, g.n)
    for ell in lm.landmarks:
        assert (B[ell] == D[ell]).all()


def test_bound_matrix_matches_scalar():
    g = small_graph("ws", 0, n=30)
    lm = build_landmarks(g, 6)
    rng = np.random.default_rng(0)
    us = rng.integers(0, g.n, 50)
    ws = rng.integers(0, g.n, 50)
    bm = lm.bound_matrix(us, ws)
    for i in range(50):
        assert bm[i] == min(int(lm.dist[us[i], k]) + int(lm.dist[ws[i], k]) for k in range(lm.k))


def test_bound_matrix_blocks(monkeypatch):
    """Blocks of 2 pairs, so the block loop runs with a ragged tail."""
    g = small_graph("ba", 2, n=30)
    lm = build_landmarks(g, 6)
    whole = all_bounds(lm, g.n)
    monkeypatch.setattr(landmark, "BLOCK", 13)
    assert np.array_equal(all_bounds(lm, g.n), whole)


def test_zero_landmarks_is_infinite():
    g = small_graph("er", 0, n=20)
    lm = build_landmarks(g, 0)
    assert lm.k == 0
    assert (all_bounds(lm, g.n) > 10**6).all()
    assert all_bounds(lm, g.n).dtype == all_bounds(build_landmarks(g, 3), g.n).dtype


@pytest.mark.parametrize("seed", range(3))
def test_cross_component_pairs_never_certified(seed):
    """Two components with landmarks in both: a pair across them gets no
    bound below ``n`` (the sum of two unreached sentinels neither overflows
    nor certifies), and the filtered build still equals HP-SPC_s."""
    g = disjoint_union(small_graph("ba", seed, n=20), small_graph("er", seed, n=20))
    lm = build_landmarks(g, 25)
    comp = connected_components(g)
    assert len(np.unique(comp[lm.landmarks])) == 2
    B = all_bounds(lm, g.n)
    cross = comp[:, None] != comp[None, :]
    assert (B[cross] >= g.n).all()
    D, _ = all_pairs_spc(g)
    assert (B[~cross] >= D[~cross]).all()
    order = degree_order(g)
    ps, _ = build_pspc_local(g, order, landmarks=lm)
    assert ps.sorted_tuples() == build_hpspc(g, order).sorted_tuples()


def test_more_landmarks_than_vertices_is_all_vertices():
    g = small_graph("ws", 1, n=20)
    lm, full = build_landmarks(g, g.n + 7), build_landmarks(g, g.n)
    assert np.array_equal(lm.landmarks, full.landmarks)
    assert np.array_equal(lm.dist, full.dist)


def test_landmarks_are_top_degree():
    g = small_graph("ba", 1, n=40)
    lm = build_landmarks(g, 3)
    deg = g.degrees()
    top3 = set(np.sort(deg)[-3:])
    assert {int(deg[v]) for v in lm.landmarks} <= set(deg) and min(
        deg[v] for v in lm.landmarks
    ) >= sorted(deg)[-3]
    assert len(lm.landmarks) == 3


def test_path_graph_exact_via_landmark():
    g = path_graph(9)
    lm = build_landmarks(g, 9)  # every vertex a landmark → bound exact
    ids = np.arange(9)
    assert (all_bounds(lm, 9) == np.abs(ids[:, None] - ids[None, :])).all()

