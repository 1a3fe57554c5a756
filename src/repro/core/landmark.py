"""Landmark-based filtering (§III-H).

Landmarks are the highest-degree vertices (the paper selects by a degree
threshold θ with a default budget of 100 landmarks; we take the top-``k`` by
degree, which is the same selection expressed as a budget). For each landmark
an exact BFS distance array is precomputed — the "LL" phase of Exp 8.

During propagation, a candidate ``(u, w, d)`` can be discarded without the
2-hop label query whenever some landmark ℓ certifies
``dist(u, ℓ) + dist(ℓ, w) < d`` — a sound upper bound by the triangle
inequality, so filtering never changes the index (tested). Because landmarks
are exactly the top-ranked hubs under degree-style orders, their labels
dominate each round and the filter hits often — the paper's motivation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.gframe import Graph
from repro.graph.algorithms import bfs_levels

INF_I32 = np.iinfo(np.int32).max


@dataclass
class LandmarkIndex:
    """Exact distances from ``k`` landmarks: ``dist[i, v]``."""

    landmarks: np.ndarray  # (k,) vertex ids
    dist: np.ndarray  # (k, n) int32

    @property
    def k(self) -> int:
        return len(self.landmarks)

    def bound_matrix(self, us: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """``min`` over landmarks ``ℓ`` of ``d(u, ℓ) + d(ℓ, w)`` per pair
        ``(us[i], ws[i])``: an upper bound on ``dist(u, w)``, tight if some
        shortest path passes a landmark; ``INF_I32`` with no landmarks."""
        if self.k == 0:
            return np.full(len(us), INF_I32, dtype=np.int64)
        du = self.dist[:, us].astype(np.int64)  # (k, q)
        dw = self.dist[:, ws].astype(np.int64)
        return (du + dw).min(axis=0)


def build_landmarks(g: Graph, k: int, seed: int = 0) -> LandmarkIndex:
    """Top-``k``-degree landmark selection + one BFS per landmark."""
    # Stable, deterministic tie-break by vertex id.
    top = np.lexsort((np.arange(g.n), -g.degrees()))[: max(0, min(k, g.n))]
    dist = np.zeros((len(top), g.n), dtype=np.int32)
    for i, v in enumerate(top):
        dist[i] = bfs_levels(g, int(v))
    return LandmarkIndex(landmarks=top.astype(np.int64), dist=dist)
