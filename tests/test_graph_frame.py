"""Graph container tests: CSR adjacency, degrees and the symmetric Spark
edge view."""
import numpy as np
import pytest

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
