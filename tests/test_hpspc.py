"""HP-SPC_s baseline: index answers must equal the BFS oracle for all pairs,
under every ordering scheme — the ESPC covering property end to end."""
import numpy as np
import pytest

from repro.core.bfs_oracle import all_pairs_spc
from repro.core.hpspc import build_hpspc
from repro.core.query import query_single
from repro.ordering.degree import degree_order
from repro.ordering.hybrid import hybrid_order
from repro.ordering.sigpath import sigpath_order
from repro.ordering.treedec import elimination_order
from tests.util import complete_graph, cycle_graph, path_graph, small_graph

ORDERS = {
    "degree": degree_order,
    "hybrid": lambda g: hybrid_order(g, 3),
    "treedec": lambda g: elimination_order(g, max_fill_degree=32),
    "sigpath": sigpath_order,
    "identity": lambda g: np.arange(g.n),
    "reverse": lambda g: np.arange(g.n)[::-1].copy(),
}


def _check_all_pairs(g, index):
    D, C = all_pairs_spc(g)
    for s in range(g.n):
        for t in range(g.n):
            d, c = query_single(index, s, t)
            assert d == D[s, t], (s, t, d, D[s, t])
            assert abs(c - C[s, t]) < 1e-6, (s, t, c, C[s, t])


@pytest.mark.parametrize("order_name", sorted(ORDERS))
@pytest.mark.parametrize("kind,seed", [("er", 0), ("er", 1), ("ba", 0), ("ws", 0), ("grid", 0)])
def test_hpspc_exact(order_name, kind, seed):
    g = small_graph(kind, seed, n=30)
    index = build_hpspc(g, ORDERS[order_name](g))
    _check_all_pairs(g, index)


@pytest.mark.parametrize("seed", range(6))
def test_hpspc_exact_random_er(seed):
    g = small_graph("er", 10 + seed, n=40)
    _check_all_pairs(g, build_hpspc(g, degree_order(g)))


@pytest.mark.parametrize("make,n", [(path_graph, 9), (cycle_graph, 10), (complete_graph, 7)])
def test_hpspc_exact_special(make, n):
    g = make(n)
    _check_all_pairs(g, build_hpspc(g, degree_order(g)))


def test_self_labels_present():
    g = small_graph("er", 0, n=30)
    index = build_hpspc(g, degree_order(g))
    for v in range(g.n):
        assert index.maps[v][v] == (0, 1.0)


def test_hub_always_outranks_vertex():
    """Every label's hub must rank at or above its vertex (trough property)."""
    g = small_graph("ba", 1, n=40)
    index = build_hpspc(g, degree_order(g))
    for v, m in enumerate(index.maps):
        for w in m:
            assert index.rank[w] <= index.rank[v]


def test_top_vertex_has_only_self_label():
    g = small_graph("er", 2, n=30)
    order = degree_order(g)
    index = build_hpspc(g, order)
    assert list(index.maps[int(order[0])]) == [int(order[0])]


def test_label_count_accounting():
    g = small_graph("er", 3, n=30)
    index = build_hpspc(g, degree_order(g))
    assert index.n_entries == sum(len(m) for m in index.maps)
    assert index.size_mb > 0
    pdf = index.to_pandas()
    assert len(pdf) == index.n_entries
    assert set(pdf.columns) == {"vertex", "hub", "dist", "cnt"}
    assert list(pdf.itertuples(index=False, name=None)) == index.sorted_tuples()
    assert pdf.dtypes.astype(str).tolist() == ["int64", "int64", "int64", "float64"]
