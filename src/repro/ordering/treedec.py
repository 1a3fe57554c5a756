"""Tree-decomposition ("road network") vertex ordering (§III-G, Def. 12).

The order comes from minimum-degree elimination, the standard way a tree
decomposition is grown (Ouyang et al., SIGMOD'18): repeatedly remove the
lowest-degree vertex, clique its remaining neighbours together (fill-in), and
append it to a queue; the final rank order is the **reverse** elimination
order (the last vertex eliminated is the most central and gets the highest
rank). On road networks this tracks the separator hierarchy far better than
raw degrees, which are nearly uniform there.

``max_fill_degree`` guards against the dense-core blow-up on social graphs:
once every remaining vertex exceeds it, the remainder is appended by
descending degree. The hybrid order (δ threshold) composes the two regimes
explicitly instead.
"""
from __future__ import annotations

import heapq

import numpy as np

from repro.graph.gframe import Graph


def elimination_order(g: Graph, max_fill_degree: int | None = None, mask: np.ndarray | None = None) -> np.ndarray:
    """Min-degree elimination; returns ``order[i]`` = vertex of rank ``i``.

    Rank 0 is the last-eliminated (most central) vertex. With a vertex
    ``mask``, the elimination runs on the subgraph the masked vertices
    induce, and the order holds those vertices only.
    """
    alive = np.ones(g.n, dtype=bool) if mask is None else np.array(mask, dtype=bool)
    adj: list[set[int]] = [{int(u) for u in g.neighbors(v) if alive[u]} if alive[v] else set() for v in range(g.n)]
    todo = np.flatnonzero(alive)
    heap = [(len(adj[v]), int(v)) for v in todo]
    heapq.heapify(heap)
    eliminated: list[int] = []
    while heap:
        dv, v = heapq.heappop(heap)
        if not alive[v] or dv != len(adj[v]):
            continue  # stale heap entry
        if max_fill_degree is not None and dv > max_fill_degree:
            # Dense remainder: stop filling, order the rest by degree desc.
            rest = [u for u in range(g.n) if alive[u]]
            rest.sort(key=lambda u: (len(adj[u]), u))
            eliminated.extend(rest)
            break
        alive[v] = False
        eliminated.append(v)
        ns = [u for u in adj[v] if alive[u]]
        for u in ns:
            adj[u].discard(v)
        # Fill-in: clique the neighbours (tree-decomposition bag edges).
        for i, a in enumerate(ns):
            for b in ns[i + 1 :]:
                if b not in adj[a]:
                    adj[a].add(b)
                    adj[b].add(a)
        for u in ns:
            heapq.heappush(heap, (len(adj[u]), u))
    order = np.asarray(eliminated[::-1], dtype=np.int64)
    assert len(order) == len(todo)
    return order
