"""Graph-algorithm substrate: BFS, components, diameter, 1-shell peeling
and neighbourhood-equivalence classes."""
import numpy as np
import pytest

from repro.graph import algorithms as alg
from repro.graph.gframe import Graph
from tests.util import complete_graph, cycle_graph, path_graph, small_graph


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", ["er", "ba", "grid"])
def test_bfs_levels_triangle_inequality(kind, seed):
    g = small_graph(kind, seed)
    d0 = alg.bfs_levels(g, 0)
    assert d0[0] == 0
    # Adjacent vertices differ by at most 1.
    for u, v in g.edges:
        assert abs(int(d0[u]) - int(d0[v])) <= 1


def plain_bfs(g, source):
    """Distances from ``source`` by a textbook queue BFS over ``neighbors``."""
    dist = {source: 0}
    queue = [source]
    for v in queue:
        for u in map(int, g.neighbors(v)):
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return [dist.get(v, alg.UNREACHED) for v in range(g.n)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["er", "ba", "grid"])
def test_bfs_levels_matches_plain_bfs(kind, seed):
    g = small_graph(kind, seed)
    for source in (0, g.n // 2, g.n - 1):
        assert alg.bfs_levels(g, source).tolist() == plain_bfs(g, source)


def test_bfs_levels_isolated_vertex():
    g = Graph.from_edges(np.array([[0, 1], [1, 2], [2, 3]]), n=5)
    assert alg.bfs_levels(g, 1).tolist() == [1, 0, 1, 2, alg.UNREACHED]
    assert alg.bfs_levels(g, 4).tolist() == [alg.UNREACHED] * 4 + [0]
    assert alg.bfs_levels(g, 4).tolist() == plain_bfs(g, 4)


def test_bfs_path_graph():
    g = path_graph(7)
    assert list(alg.bfs_levels(g, 0)) == list(range(7))
    assert list(alg.bfs_levels(g, 3)) == [3, 2, 1, 0, 1, 2, 3]


def test_diameter_known():
    assert alg.eccentricity(path_graph(10), 0) == 9
    assert alg.diameter_estimate(path_graph(10), probes=2) == 9
    assert alg.diameter_estimate(cycle_graph(12), probes=3) == 6
    assert alg.diameter_estimate(complete_graph(8), probes=2) == 1


@pytest.mark.parametrize("seed", range(4))
def test_connected_components_single(seed):
    g = small_graph("er", seed)
    assert len(np.unique(alg.connected_components(g))) == 1


def test_connected_components_two():
    e = np.array([[0, 1], [1, 2], [3, 4]])
    g = Graph.from_edges(e, n=5)
    comp = alg.connected_components(g)
    assert comp[0] == comp[1] == comp[2]
    assert comp[3] == comp[4]
    assert comp[0] != comp[3]


def test_one_shell_path_graph():
    """A path is all 1-shell: peels to a single core vertex."""
    g = path_graph(8)
    r = alg.one_shell_peel(g)
    assert r["core_mask"].sum() == 1
    core = int(np.flatnonzero(r["core_mask"])[0])
    assert r["anchor"][core] == core and r["depth"][core] == 0


def test_one_shell_lollipop():
    """Triangle + tail: the triangle is the core, the tail anchors to it."""
    e = np.array([[0, 1], [1, 2], [0, 2], [2, 3], [3, 4]])
    g = Graph.from_edges(e, n=5)
    r = alg.one_shell_peel(g)
    assert set(np.flatnonzero(r["core_mask"])) == {0, 1, 2}
    assert r["anchor"][3] == 2 and r["depth"][3] == 1
    assert r["anchor"][4] == 2 and r["depth"][4] == 2
    assert r["parent"][4] == 3


@pytest.mark.parametrize("seed", range(4))
def test_one_shell_invariants(seed):
    g = small_graph("er", seed, n=60)
    r = alg.one_shell_peel(g)
    core = r["core_mask"]
    for v in range(g.n):
        if core[v]:
            assert r["depth"][v] == 0 and r["anchor"][v] == v
        else:
            a = int(r["anchor"][v])
            assert core[a]
            # Walking parents depth[v] times reaches the anchor.
            x = v
            for _ in range(int(r["depth"][v])):
                x = int(r["parent"][x])
            assert x == a


def test_equivalence_open_twins():
    """Two non-adjacent vertices with the same neighbourhood."""
    e = np.array([[0, 2], [0, 3], [1, 2], [1, 3], [2, 3]])
    g = Graph.from_edges(e, n=4)
    cls = alg.equivalence_classes(g)
    assert cls[0] == cls[1]
    assert cls[2] != cls[0] or cls[3] != cls[0]


def test_equivalence_closed_twins():
    """Two adjacent vertices with the same closed neighbourhood (triangle
    corner pair hanging off a hub)."""
    e = np.array([[0, 1], [0, 2], [1, 2], [0, 3], [3, 1]])  # 0,1 adjacent, both ~ {2,3}
    g = Graph.from_edges(e, n=4)
    cls = alg.equivalence_classes(g)
    assert cls[0] == cls[1]


@pytest.mark.parametrize("seed", range(4))
def test_equivalence_classes_are_sound(seed):
    """Every non-singleton class is pairwise neighbourhood-equivalent."""
    g = small_graph("ba", seed, n=50)
    cls = alg.equivalence_classes(g)
    sets = [set(map(int, g.neighbors(v))) for v in range(g.n)]
    for c in np.unique(cls):
        members = np.flatnonzero(cls == c)
        for i in members:
            for j in members:
                if i < j:
                    assert sets[int(i)] - {int(j)} == sets[int(j)] - {int(i)}
