"""Landmark index: bound soundness (never below the true distance), tightness
when a landmark lies on a shortest path, checked on all pairs at once; and
the bit-parallel BFS against one BFS per landmark."""
import numpy as np
import pytest

from repro.core.bfs_oracle import all_pairs_spc
from repro.core.hpspc import build_hpspc
from repro.core import landmark
from repro.core.landmark import build_landmarks
from repro.core.pspc_local import build_pspc_local
from repro.graph.algorithms import bfs_levels, connected_components
from repro.graph.gframe import Graph
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



def per_landmark_bfs(g, landmarks):
    """The ``(n, k)`` table by one ``bfs_levels`` per landmark."""
    cols = [np.minimum(bfs_levels(g, int(v)), landmark.FAR) for v in landmarks]
    return np.stack(cols, axis=1).astype(np.int32) if cols else np.empty((g.n, 0), dtype=np.int32)


def top_degree(g, k):
    return np.lexsort((np.arange(g.n), -g.degrees()))[: min(k, g.n)]


@pytest.mark.parametrize("k", [1, 63, 64, 65, 130])
@pytest.mark.parametrize("kind", ["er", "ba", "grid"])
def test_bit_parallel_bfs_equals_per_landmark_bfs(kind, k):
    """One word per 64 landmarks: k = 63, 64, 65 straddle a word edge."""
    g = small_graph(kind, 1, n=150)
    lm = build_landmarks(g, k)
    assert np.array_equal(lm.landmarks, top_degree(g, k))
    assert lm.dist.dtype == np.int32 and lm.dist.flags.c_contiguous
    assert np.array_equal(lm.dist, per_landmark_bfs(g, lm.landmarks))


@pytest.mark.parametrize("kind", ["er", "ba", "grid"])
def test_bit_parallel_bfs_more_landmarks_than_vertices(kind):
    g = small_graph(kind, 2, n=40)
    lm = build_landmarks(g, g.n + 70)
    assert lm.k == g.n
    assert np.array_equal(lm.dist, per_landmark_bfs(g, lm.landmarks))


def scattered_isolated(g, extra: int, seed: int) -> Graph:
    """``g`` relabelled into ``g.n + extra`` ids, leaving ``extra`` isolated
    vertices among them, the first and the last id included."""
    n = g.n + extra
    ids = np.random.default_rng(seed).permutation(np.arange(1, n - 1))[: g.n]
    return Graph.from_edges(ids[g.edges], n=n)


@pytest.mark.parametrize("k", [5, 64, 80])
def test_bit_parallel_bfs_isolated_vertices(k):
    """An isolated vertex has an empty CSR row, where ``reduceat`` would
    read the next row's first entry, and the last one starts at the end of
    the neighbour array. With k = 80 every vertex is a landmark, isolated
    ones included."""
    g = scattered_isolated(small_graph("ba", 3, n=70), 10, seed=k)
    assert g.degrees()[0] == g.degrees()[-1] == 0
    lm = build_landmarks(g, k)
    ref = per_landmark_bfs(g, lm.landmarks)
    assert np.array_equal(lm.dist, ref)
    isolated = np.flatnonzero(g.degrees() == 0)
    assert (lm.dist[isolated][lm.dist[isolated] != 0] == landmark.FAR).all()


@pytest.mark.parametrize("k", [3, 64, 70])
def test_bit_parallel_bfs_two_components(k):
    g = disjoint_union(small_graph("er", 4, n=40), small_graph("grid", 4, n=30))
    lm = build_landmarks(g, k)
    comp = connected_components(g)
    assert np.array_equal(lm.dist, per_landmark_bfs(g, lm.landmarks))
    far = comp[:, None] != comp[lm.landmarks][None, :]
    assert far.any() and (lm.dist[far] == landmark.FAR).all() and (lm.dist[~far] < g.n).all()


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("k", [0, 1, 65])
def test_bit_parallel_bfs_tiny_graphs(n, k):
    g = Graph.from_edges(np.empty((0, 2), dtype=np.int64), n=n)
    lm = build_landmarks(g, k)
    assert lm.dist.shape == (n, min(k, n)) and lm.dist.dtype == np.int32
    assert np.array_equal(lm.dist, per_landmark_bfs(g, lm.landmarks))
