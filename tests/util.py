"""Shared helpers for the test suite: small deterministic graphs and a
brute-force shortest-path enumerator used to validate the BFS oracle itself."""
from __future__ import annotations

import numpy as np

from repro.graph.gframe import Graph
from repro.graphgen import generators as gen


def small_graph(kind: str, seed: int, n: int = 40) -> Graph:
    """A connected test graph of the given topology class."""
    if kind == "er":
        e = gen.erdos_renyi(n, 0.10, seed)
    elif kind == "ba":
        e = gen.barabasi_albert(n, 3, seed)
    elif kind == "ws":
        e = gen.watts_strogatz(n, 4, 0.2, seed)
    elif kind == "grid":
        side = max(3, int(np.sqrt(n)))
        e = gen.grid_road(side, side, seed=seed)
    elif kind == "rmat":
        e = gen.rmat(n, n * 3, seed)
    else:
        raise ValueError(kind)
    e, nn = gen.largest_component(e)
    return Graph(n=nn, edges=e, name=f"{kind}-{seed}")


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """``a`` and ``b`` side by side, ``b``'s vertices shifted by ``a.n``."""
    return Graph.from_edges(np.concatenate([a.edges, b.edges + a.n]), n=a.n + b.n)


def path_graph(n: int) -> Graph:
    e = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
    return Graph.from_edges(e, n=n)


def cycle_graph(n: int) -> Graph:
    e = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    return Graph.from_edges(e, n=n)


def complete_graph(n: int) -> Graph:
    e = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph.from_edges(np.asarray(e), n=n)


def brute_force_spc(g: Graph, s: int, t: int, cap: int = 12) -> tuple[int, int]:
    """Enumerate simple paths up to length ``cap`` by DFS — the independent
    check for the BFS oracle (tiny graphs only)."""
    if s == t:
        return 0, 1
    best = {"d": cap + 1, "c": 0}

    def dfs(v: int, depth: int, seen: set) -> None:
        if depth > best["d"]:
            return
        for u in g.neighbors(v):
            u = int(u)
            if u == t:
                d = depth + 1
                if d < best["d"]:
                    best["d"], best["c"] = d, 1
                elif d == best["d"]:
                    best["c"] += 1
            elif u not in seen and depth + 1 < best["d"]:
                seen.add(u)
                dfs(u, depth + 1, seen)
                seen.remove(u)

    dfs(s, 0, {s})
    return (best["d"], best["c"]) if best["c"] else (np.iinfo(np.int64).max, 0)
