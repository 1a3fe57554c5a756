"""Significant-path-based vertex ordering (§III-G).

The strongest sequential ordering of HP-SPC (Zhang & Yu): after pushing hub
``w_i`` (a pruned BFS producing a partial shortest-path tree ``T_{w_i}``),
walk the *significant path* — from the root repeatedly descend into the child
with the most tree descendants — and pick as ``w_{i+1}`` the on-path vertex
maximizing ``deg(v) · (des(par(v)) − des(v))`` among unordered vertices.
``w_1`` is the max-degree vertex.

The next hub depends on the tree of the current hub's pruned BFS, so the
ordering is welded to the sequential construction — the dependency the paper
calls out as the reason it cannot be parallelized. It is reproduced here
(sequentially, like the baseline) for the ablation of Exp 5(c).
"""
from __future__ import annotations

import numpy as np

from repro.graph.gframe import Graph

INF = float("inf")


def sigpath_order(g: Graph) -> np.ndarray:
    """Run HP-SPC's construction with dynamic hub selection; return the hub
    order it produces (padded with remaining vertices by degree)."""
    n = g.n
    if n == 0:
        return np.empty(0, dtype=np.int64)
    indptr, nbrs = g.adj()
    deg = g.degrees()
    maps: list[dict[int, int]] = [dict() for _ in range(n)]  # hub -> dist
    T = np.full(n, INF)
    ordered: list[int] = []
    in_order = np.zeros(n, dtype=bool)
    # rank by selection time; unselected vertices rank below all selected.
    rank = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
    current = int(np.argmax(deg))
    while len(ordered) < n:
        h = current
        rank[h] = len(ordered)
        ordered.append(h)
        in_order[h] = True
        # Pruned BFS from h (distance-only), recording the BFS tree.
        T[h] = 0.0
        touched = [h]
        for w, dw in maps[h].items():
            T[w] = dw
            touched.append(w)
        maps[h][h] = 0
        parent = {h: -1}
        children: dict[int, list[int]] = {h: []}
        frontier = [h]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for v in frontier:
                for u in nbrs[indptr[v] : indptr[v + 1]]:
                    u = int(u)
                    if u in parent or rank[u] <= rank[h]:
                        continue
                    q = INF
                    for w, dw in maps[u].items():
                        if T[w] + dw < q:
                            q = T[w] + dw
                    if q < d:
                        parent[u] = v  # visited but pruned: not in tree
                        continue
                    maps[u][h] = d
                    parent[u] = v
                    children.setdefault(v, []).append(u)
                    children.setdefault(u, [])
                    nxt.append(u)
            frontier = nxt
        for w in touched:
            T[w] = INF
        # Descendant counts over the BFS tree (reverse insertion order works
        # because children are discovered after parents).
        des = {v: 1 for v in children}
        for v in reversed(list(children)):
            for c in children.get(v, []):
                des[v] += des[c]
        # Significant path: follow the child with max descendants.
        path = []
        v = h
        while children.get(v):
            v = max(children[v], key=lambda c: (des[c], -c))
            path.append(v)
        # Score on-path vertices; fall back to max-degree unordered vertex.
        best, best_score = -1, -1.0
        for v in path:
            if in_order[v]:
                continue
            p = parent[v]
            score = float(deg[v]) * float(des.get(p, 1) - des.get(v, 0))
            if score > best_score:
                best, best_score = v, score
        if best < 0:
            rest = np.flatnonzero(~in_order)
            if len(rest) == 0:
                break
            best = int(rest[np.argmax(deg[rest])])
        current = best
    return np.asarray(ordered, dtype=np.int64)
