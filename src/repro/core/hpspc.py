"""HP-SPC_s — the sequential state-of-the-art baseline (Zhang & Yu,
SIGMOD'20), reproduced as the paper describes it in §II-A / §III.

One pruned BFS per vertex, in rank order. The BFS from hub ``h`` propagates
*trough* path counts (all intermediate vertices ranked below ``h``); a
visited vertex ``u`` is labeled with ``(h, d, c)`` unless the 2-hop query
over the already-built labels certifies ``dist(h, u) < d`` (the pruning that
creates the order dependency of Lemma 1 — iteration ``i`` must observe the
labels of all iterations ``< i``, which is why this algorithm cannot be
parallelized and why the paper exists).

Driver-side python on CSR adjacency by design: the baseline is single-machine
sequential code in the paper too (see DESIGN.md §6).
"""
from __future__ import annotations

import numpy as np

from repro.core.labels import LabelIndex
from repro.core.pspc_local import rank_of
from repro.graph.gframe import Graph

INF = float("inf")


def build_hpspc(g: Graph, order: np.ndarray) -> LabelIndex:
    """Construct the ESPC index sequentially.

    ``order[i]`` is the vertex of rank ``i`` (rank 0 = highest). Returns a
    :class:`LabelIndex` whose label sets are exactly the canonical +
    non-canonical ESPC labels — the same sets PSPC reconstructs in parallel.
    """
    n = g.n
    rank = rank_of(order, n)
    indptr, nbrs = g.adj()
    maps: list[dict[int, tuple[int, float]]] = [dict() for _ in range(n)]

    # Scratch: distances from the current hub to its own hubs (T array of the
    # classic PLL query trick), reset lazily between iterations.
    T = np.full(n, INF)

    for h in order:
        h = int(h)
        Lh = maps[h]
        touched = [h]
        T[h] = 0.0
        for w, (dw, _) in Lh.items():
            T[w] = dw
            touched.append(w)
        rh = rank[h]
        maps[h][h] = (0, 1.0)  # self label: h is trivially its own hub
        # Pruned BFS with count aggregation per level.
        frontier: dict[int, float] = {h: 1.0}
        seen = {h}
        d = 0
        while frontier:
            d += 1
            nxt: dict[int, float] = {}
            for v, c in frontier.items():
                for u in nbrs[indptr[v] : indptr[v + 1]]:
                    u = int(u)
                    if u in seen or rank[u] <= rh:
                        continue  # settled, or ranked above the hub
                    nxt[u] = nxt.get(u, 0.0) + c
            frontier = {}
            for u, c in nxt.items():
                seen.add(u)
                # Query(h, u) over labels of higher-ranked hubs (+ self).
                q = INF
                for w, (dw, _) in maps[u].items():
                    tw = T[w]
                    if tw + dw < q:
                        q = tw + dw
                if q < d:
                    continue  # pruned: a higher-ranked hub already covers it
                maps[u][h] = (d, c)
                frontier[u] = c
        for w in touched:
            T[w] = INF
    return LabelIndex(n=n, rank=rank, maps=maps)
