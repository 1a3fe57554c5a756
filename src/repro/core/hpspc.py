"""HP-SPC_s — the sequential state-of-the-art baseline (Zhang & Yu,
SIGMOD'20), reproduced as the paper describes it in §II-A / §III.

One pruned BFS per vertex, in rank order. The BFS from hub ``h`` propagates
*trough* path counts (all intermediate vertices ranked below ``h``); a
visited vertex ``u`` is labeled with ``(h, d, c)`` unless the 2-hop query
over the already-built labels certifies ``dist(h, u) < d`` (the pruning that
creates the order dependency of Lemma 1 — iteration ``i`` must observe the
labels of all iterations ``< i``, which is why this algorithm cannot be
parallelized and why the paper exists).

The loops run on plain Python containers: the rank and the CSR adjacency
are converted to lists once per build, so no numpy scalar is read inside a
loop (each such read boxes a new object and costs several times a list
index). The 2-hop query is the classic pruned-landmark-labelling probe
(Akiba et al., SIGMOD'13): before the BFS from ``h``, the array ``T`` holds
``dist(h, w)`` for every hub ``w`` of ``L(h)``; a candidate ``u`` at depth
``d`` is pruned as soon as one hub of ``L(u)`` gives ``T[w] + d(u, w) < d``.
The probe reads ``dists[u]``, a hub → distance dict kept beside ``maps[u]``,
in rank order of the hubs, so the top hubs that certify most prunes come
first and the scan stops at the first witness. This is the same decision as
"min over ``L(u)``, then compare with ``d``"; the algorithm, its visiting
order and hence its labels and their order dependency are unchanged.

Driver-side python by design: the baseline is single-machine sequential
code in the paper too (see DESIGN.md §6).
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
    rank_arr = rank_of(order, n)
    rank = rank_arr.tolist()
    indptr, nbrs = g.adj()
    ptr, flat = indptr.tolist(), nbrs.tolist()
    adj = [flat[ptr[v] : ptr[v + 1]] for v in range(n)]
    maps: list[dict[int, tuple[int, float]]] = [dict() for _ in range(n)]
    dists: list[dict[int, int]] = [dict() for _ in range(n)]

    # dist(h, w) for the hubs w of the current hub h, INF elsewhere.
    T = [INF] * n

    for h in np.asarray(order, dtype=np.int64).tolist():
        Dh = dists[h]
        maps[h][h] = (0, 1.0)  # self label: h is trivially its own hub
        Dh[h] = 0
        for w, dw in Dh.items():
            T[w] = dw
        rh = rank[h]
        # Pruned BFS with count aggregation per level.
        frontier: dict[int, float] = {h: 1.0}
        seen = {h}
        d = 0
        while frontier:
            d += 1
            nxt: dict[int, float] = {}
            for v, c in frontier.items():
                for u in adj[v]:
                    if u in seen or rank[u] <= rh:
                        continue  # settled, or ranked above the hub
                    nxt[u] = nxt.get(u, 0.0) + c
            seen.update(nxt)
            frontier = {}
            for u, c in nxt.items():
                # Query(h, u) over labels of higher-ranked hubs (+ self).
                for w, dw in dists[u].items():
                    if T[w] + dw < d:
                        break  # pruned: a higher-ranked hub already covers it
                else:
                    maps[u][h] = (d, c)
                    dists[u][h] = d
                    frontier[u] = c
        for w in Dh:
            T[w] = INF
    return LabelIndex(n=n, rank=rank_arr, maps=maps)
