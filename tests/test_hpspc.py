"""HP-SPC_s baseline: index answers must equal the BFS oracle for all pairs,
under every ordering scheme — the ESPC covering property end to end — and
the labels themselves must equal the ESPC definition, computed here from
scratch."""
from collections import deque

import numpy as np
import pytest

from repro.core.bfs_oracle import all_pairs_spc
from repro.core.hpspc import build_hpspc
from repro.core.query import query_single
from repro.graph.gframe import Graph
from repro.ordering.degree import degree_order
from repro.ordering.hybrid import hybrid_order
from repro.ordering.sigpath import sigpath_order
from repro.ordering.treedec import elimination_order
from tests.util import complete_graph, cycle_graph, disjoint_union, path_graph, small_graph

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


def espc_labels(g, order) -> list[tuple[int, int, int, float]]:
    """The ESPC index by its definition, independent of every builder: for
    each hub ``w``, count paths by BFS from ``w`` through vertices ranked
    below ``w``; ``(u, w, d, c)`` is a label iff ``d == dist(u, w)``."""
    rank = {int(v): i for i, v in enumerate(order)}
    adj = [[int(u) for u in g.neighbors(v)] for v in range(g.n)]
    out = []
    for w in range(g.n):
        dist = {w: 0}
        todo = deque([w])
        while todo:
            v = todo.popleft()
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    todo.append(u)
        out.append((w, w, 0, 1.0))
        level, seen, d = {w: 1}, {w}, 0
        while level:
            d += 1
            nxt: dict[int, int] = {}
            for v, c in level.items():
                for u in adj[v]:
                    if u not in seen and rank[u] > rank[w]:
                        nxt[u] = nxt.get(u, 0) + c
            seen.update(nxt)
            out += [(u, w, d, float(c)) for u, c in nxt.items() if dist[u] == d]
            level = nxt
    return sorted(out)


def _empty(n):
    return Graph.from_edges(np.zeros((0, 2), dtype=np.int64), n=n)


ESPC_GRAPHS = {
    "er": lambda: small_graph("er", 0, n=30),
    "ba": lambda: small_graph("ba", 1, n=30),
    "ws": lambda: small_graph("ws", 2, n=30),
    "grid": lambda: small_graph("grid", 0, n=30),
    "two-components": lambda: disjoint_union(small_graph("er", 3, n=16), small_graph("ws", 3, n=16)),
    "n=0": lambda: _empty(0),
    "n=1": lambda: _empty(1),
}


@pytest.mark.parametrize("order_name", sorted(ORDERS))
@pytest.mark.parametrize("graph", list(ESPC_GRAPHS))
def test_hpspc_labels_are_espc(graph, order_name):
    """Every label HP-SPC_s keeps is an ESPC label and none is missing: an
    unfired or over-eager prune shows here even where all answers agree."""
    g = ESPC_GRAPHS[graph]()
    order = ORDERS[order_name](g)
    assert build_hpspc(g, order).sorted_tuples() == espc_labels(g, order)


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
