"""Hybrid vertex ordering (§III-G, contribution 3).

Vertices split by a degree threshold δ: the **core part** (degree > δ) is
ordered by descending degree and ranked above everything; the **fringe part**
(degree ≤ δ) is ordered by reverse min-degree elimination *restricted to the
fringe* (the tree-decomposition/road order, which is where it shines). δ=0
degenerates to the pure degree order; a huge δ degenerates to the pure
elimination order — exactly the sweep of Exp 6.
"""
from __future__ import annotations

import numpy as np

from repro.graph.gframe import Graph
from repro.ordering.treedec import elimination_order


def hybrid_order(g: Graph, delta: int = 5) -> np.ndarray:
    """``order[i]`` = vertex of rank ``i``; core (deg > δ) first by degree
    desc, then fringe by reverse elimination order among themselves."""
    deg = g.degrees()
    core = np.flatnonzero(deg > delta)
    core_sorted = core[np.lexsort((core, -deg[core]))]
    # Min-degree elimination on the fringe-induced subgraph; core vertices
    # act as absent (paths through the core belong to the core's order).
    return np.concatenate([core_sorted, elimination_order(g, mask=deg <= delta)])
