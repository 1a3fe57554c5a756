"""Landmark index: bound soundness (never below the true distance), tightness
when a landmark lies on a shortest path, checked on all pairs at once."""
import numpy as np
import pytest

from repro.core.bfs_oracle import all_pairs_spc
from repro.core.landmark import build_landmarks
from tests.util import path_graph, small_graph


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
        assert bm[i] == min(int(lm.dist[k, us[i]]) + int(lm.dist[k, ws[i]]) for k in range(lm.k))


def test_zero_landmarks_is_infinite():
    g = small_graph("er", 0, n=20)
    lm = build_landmarks(g, 0)
    assert lm.k == 0
    assert (all_bounds(lm, g.n) > 10**6).all()


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

