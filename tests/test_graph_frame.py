"""Graph container tests: CSR adjacency, degrees, the symmetric Spark edge
view, and how ``Graph.from_edges`` cleans and validates an edge list."""
import numpy as np
import pytest

from repro.graph.gframe import Graph
from tests.util import complete_graph, path_graph, small_graph


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["er", "ba", "ws"])
def test_adjacency_consistent(kind, seed):
    g = small_graph(kind, seed)
    indptr, nbrs = g.adj()
    assert indptr[-1] == 2 * g.m
    # Every edge appears in both adjacency lists.
    for u, v in g.edges[: min(50, g.m)]:
        assert int(v) in set(map(int, g.neighbors(int(u))))
        assert int(u) in set(map(int, g.neighbors(int(v))))


@pytest.mark.parametrize("seed", range(4))
def test_degrees_match_edges(seed):
    g = small_graph("er", seed)
    deg = g.degrees()
    assert deg.sum() == 2 * g.m
    counts = np.zeros(g.n, dtype=np.int64)
    for u, v in g.edges:
        counts[u] += 1
        counts[v] += 1
    assert np.array_equal(deg, counts)


def test_path_graph_shape():
    g = path_graph(5)
    assert g.n == 5 and g.m == 4
    assert list(g.degrees()) == [1, 2, 2, 2, 1]


def test_complete_graph_shape():
    g = complete_graph(6)
    assert g.m == 15 and (g.degrees() == 5).all()


def test_symmetric_edges_double(spark):
    g = small_graph("er", 0)
    sym = g.symmetric_edges()
    assert len(sym) == 2 * g.m
    assert g.edges_df(spark).count() == 2 * g.m


def test_from_edges_drops_self_loops_and_duplicates():
    clean = Graph.from_edges(np.array([[0, 1], [1, 2], [2, 3]]), n=5)
    messy = Graph.from_edges(np.array([[2, 1], [0, 1], [3, 3], [1, 2], [1, 0], [2, 3], [4, 4], [0, 1]]), n=5)
    assert messy.n == clean.n and np.array_equal(messy.edges, clean.edges)
    assert messy.m == 3 and list(messy.degrees()) == [1, 2, 2, 1, 0]


@pytest.mark.parametrize(
    "edges,n",
    [
        ([[-1, 2], [0, 1]], 3),  # would index the last vertex from the end
        ([[0, 3], [0, 1]], 3),
        ([[3, 3], [0, 1]], 3),  # checked before self-loops are dropped
        ([[-2, 1]], None),  # with n inferred, only negative ids are out of range
    ],
)
def test_from_edges_rejects_out_of_range_ids(edges, n):
    with pytest.raises(ValueError, match="0\\.\\."):
        Graph.from_edges(np.array(edges), n=n)


def test_from_edges_infers_n_from_largest_id():
    assert Graph.from_edges(np.array([[0, 1], [4, 4]])).n == 5
    assert Graph.from_edges(np.zeros((0, 2), dtype=np.int64)).n == 0
