"""Driver-side graph algorithms over :class:`repro.graph.gframe.Graph`.

These are the substrate the index builders stand on: BFS levels (landmark
distances, diameter estimation), connected components, 1-shell peeling
(§IV-A of the paper) and neighbourhood-equivalence classes (§IV-B).
All of them run on the CSR adjacency — they are O(n+m) utilities, not the
contribution, so the driver is the right place for them; the Spark-facing
pieces live in the index builders themselves.
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.graph.csr import gather
from repro.graph.gframe import Graph

UNREACHED = np.iinfo(np.int32).max


def bfs_levels(g: Graph, source: int) -> np.ndarray:
    """Distances from ``source`` to every vertex (``UNREACHED`` sentinel for
    disconnected vertices), frontier-array BFS: each level is one CSR gather
    of the frontier's neighbours, of which the unseen ones are the next."""
    indptr, nbrs = g.adj()
    dist = np.full(g.n, UNREACHED, dtype=np.int32)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    d = 0
    while len(frontier):
        d += 1
        nxt = nbrs[gather(indptr, frontier)[1]]
        frontier = np.unique(nxt[dist[nxt] == UNREACHED])
        dist[frontier] = d
    return dist


def eccentricity(g: Graph, source: int) -> int:
    d = bfs_levels(g, source)
    return int(d[d != UNREACHED].max())


def diameter_estimate(g: Graph, probes: int = 8, seed: int = 0) -> int:
    """Double-sweep lower bound on the diameter: BFS from random probes, then
    from the farthest vertex found. Exact on trees; tight in practice on the
    small-world graphs used here."""
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(max(1, probes)):
        s = int(rng.integers(0, g.n))
        d = bfs_levels(g, s)
        far = int(np.argmax(np.where(d == UNREACHED, -1, d)))
        best = max(best, eccentricity(g, far))
    return best


def connected_components(g: Graph) -> np.ndarray:
    """Component id per vertex (union-find)."""
    parent = np.arange(g.n, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for u, v in g.edges:
        ru, rv = find(int(u)), find(int(v))
        if ru != rv:
            parent[ru] = rv
    return np.fromiter((find(int(i)) for i in range(g.n)), dtype=np.int64, count=g.n)


def one_shell_peel(g: Graph) -> dict:
    """Peel the 1-shell: iteratively remove degree-1 vertices (§IV-A).

    Returns a dict with:
      * ``core_mask`` — bool per vertex, True if the vertex stays in the core;
      * ``parent`` — for each peeled vertex, its neighbour at peel time
        (tree parent towards the core), -1 for core vertices;
      * ``anchor`` — nearest core vertex (self for core vertices);
      * ``depth`` — tree distance to the anchor (0 for core vertices).

    If the whole graph is a tree the last surviving vertex is kept as a
    one-vertex core so queries still anchor somewhere.
    """
    deg = g.degrees().astype(np.int64).copy()
    indptr, nbrs = g.adj()
    alive = np.ones(g.n, dtype=bool)
    parent = np.full(g.n, -1, dtype=np.int64)
    stack = list(np.flatnonzero(deg == 1))
    removed = 0
    while stack and removed < g.n - 1:
        v = int(stack.pop())
        if not alive[v] or deg[v] != 1 or removed >= g.n - 1:
            continue
        alive[v] = False
        removed += 1
        for u in nbrs[indptr[v] : indptr[v + 1]]:
            u = int(u)
            if alive[u]:
                parent[v] = u
                deg[u] -= 1
                if deg[u] == 1:
                    stack.append(u)
    anchor = np.arange(g.n, dtype=np.int64)
    depth = np.zeros(g.n, dtype=np.int64)
    # Resolve anchors by chasing parents (paths are short; memoize on the way).
    for v in range(g.n):
        if alive[v]:
            continue
        path = []
        x = v
        while not alive[x]:
            path.append(x)
            x = int(parent[x])
        for i, p in enumerate(reversed(path), start=1):
            anchor[p] = x
            depth[p] = i
    return {"core_mask": alive, "parent": parent, "anchor": anchor, "depth": depth}


def equivalence_classes(g: Graph) -> np.ndarray:
    """Neighbourhood-equivalence class id per vertex (§IV-B).

    ``u ≡ v`` iff ``nbr(u) \\ {v} == nbr(v) \\ {u}`` — i.e. either the same
    open neighbourhood (non-adjacent twins) or the same closed neighbourhood
    (adjacent twins). Classes are found by hashing both signatures.
    """
    indptr, nbrs = g.adj()
    open_sig: dict[bytes, list[int]] = defaultdict(list)
    closed_sig: dict[bytes, list[int]] = defaultdict(list)
    for v in range(g.n):
        ns = nbrs[indptr[v] : indptr[v + 1]]
        open_sig[ns.tobytes()].append(v)
        closed = np.sort(np.append(ns, v)).astype(np.int64)
        closed_sig[closed.tobytes()].append(v)
    # Conservative, provably-sound grouping: members of one open-signature
    # group are pairwise non-adjacent twins; members of one closed-signature
    # group are pairwise adjacent twins. A vertex joins at most one
    # non-trivial group (open groups first), so every emitted class is
    # pairwise equivalent even if the two relations could chain further.
    cls = np.arange(g.n, dtype=np.int64)
    taken = np.zeros(g.n, dtype=bool)
    for sig_map in (open_sig, closed_sig):
        for members in sig_map.values():
            free = [m for m in members if not taken[m]]
            if len(free) > 1:
                rep = min(free)
                for m in free:
                    cls[m] = rep
                    taken[m] = True
    return cls
