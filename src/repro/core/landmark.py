"""Landmark-based filtering (§III-H).

Landmarks are the highest-degree vertices (the paper selects by a degree
threshold θ with a default budget of 100 landmarks; we take the top-``k`` by
degree, which is the same selection expressed as a budget). The exact BFS
distances from all landmarks are precomputed by one multi-source BFS — the
"LL" phase of Exp 8. Each vertex carries ⌈k/64⌉ ``uint64`` words with one
bit per landmark (the bit-parallel BFS of Akiba et al., SIGMOD'13, and
MS-BFS, Then et al., PVLDB 2014): a level ORs the frontier words of every
vertex's neighbours with one CSR gather and one ``np.bitwise_or.reduceat``,
and a bit that is new at a vertex sets that landmark's distance.

During propagation, a candidate ``(u, w, d)`` can be discarded without the
2-hop label query whenever some landmark ℓ certifies
``dist(u, ℓ) + dist(ℓ, w) < d`` — a sound upper bound by the triangle
inequality, so filtering never changes the index (tested). Because landmarks
are exactly the top-ranked hubs under degree-style orders, their labels
dominate each round and the filter hits often — the paper's motivation.

The distances are one vertex-major ``(n, k)`` int32 table, ``dist[v, i]`` =
``dist(v, landmarks[i])``, so the bound of a batch of pairs is two row
gathers, one add and one row ``min``. A vertex a landmark does not reach
holds ``FAR = 2**30 - 1``: the sum of two ``FAR`` still fits in int32, and
every sum with a ``FAR`` in it exceeds any distance, so a pair in different
components is never certified. The table is not narrower than int32: the
bound adds two distances, which overflows int16 once a landmark's
eccentricity passes 16k, as on a long path or a large road graph.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.gframe import Graph

INF_I32 = np.iinfo(np.int32).max
#: the table's distance to a vertex a landmark does not reach
FAR = 2**30 - 1
#: table cells per gathered block of ``bound_matrix``: two 256 KB blocks and
#: their sum stay in a 2 MB L2 cache; one unblocked 16k-pair batch at 100
#: landmarks (6.5 MB per gather) ran 2.3× slower on a 4-vCPU Xeon
BLOCK = 1 << 16


@dataclass
class LandmarkIndex:
    """Exact distances from ``k`` landmarks: ``dist[v, i]``."""

    landmarks: np.ndarray  # (k,) vertex ids
    dist: np.ndarray  # (n, k) int32, C-contiguous

    @property
    def k(self) -> int:
        return len(self.landmarks)

    def bound_matrix(self, us: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """``min`` over landmarks ``ℓ`` of ``d(u, ℓ) + d(ℓ, w)`` per pair
        ``(us[i], ws[i])``: an upper bound on ``dist(u, w)``, tight if some
        shortest path passes a landmark; ``INF_I32`` with no landmarks."""
        if self.k == 0:
            return np.full(len(us), INF_I32, dtype=np.int32)
        rows = max(1, BLOCK // self.k)
        bound = np.empty(len(us), dtype=np.int32)
        for lo in range(0, len(us), rows):
            hi = lo + rows
            bound[lo:hi] = (self.dist[us[lo:hi]] + self.dist[ws[lo:hi]]).min(axis=1)
        return bound


def build_landmarks(g: Graph, k: int) -> LandmarkIndex:
    """Top-``k``-degree landmark selection + one bit-parallel BFS from all of
    them at once."""
    # Stable, deterministic tie-break by vertex id.
    top = np.lexsort((np.arange(g.n), -g.degrees()))[: max(0, min(k, g.n))]
    k = len(top)
    dist = np.full((g.n, k), FAR, dtype=np.int32)
    if k == 0:
        return LandmarkIndex(landmarks=top.astype(np.int64), dist=dist)
    indptr, nbrs = g.adj()
    # reduceat reads a row's first entry where the row is empty, and cannot
    # start a row at len(nbrs): only rows with neighbours are reduced.
    has = np.flatnonzero(np.diff(indptr))
    starts = indptr[has]
    bit = np.arange(k)
    # Bit i of vertex v's words is landmark i; little-endian words unpack in
    # landmark order.
    frontier = np.zeros((g.n, (k + 63) // 64), dtype="<u8")
    frontier[top, bit // 64] = np.left_shift(np.uint64(1), (bit % 64).astype(np.uint64))
    seen = frontier.copy()
    dist[top, bit] = 0
    level = 0
    while len(has):
        level += 1
        reach = np.zeros_like(frontier)
        reach[has] = np.bitwise_or.reduceat(frontier[nbrs], starts, axis=0)
        frontier = reach & ~seen
        new = np.flatnonzero(frontier.any(axis=1))
        if not len(new):
            break
        seen[new] |= frontier[new]
        bits = np.unpackbits(frontier[new].view(np.uint8), axis=1, count=k, bitorder="little")
        dist[new] = np.where(bits.view(bool), level, dist[new])
    return LandmarkIndex(landmarks=top.astype(np.int64), dist=dist)
