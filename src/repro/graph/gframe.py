"""Graph container shared by the Spark jobs and the driver-side algorithms.

``Graph`` keeps two synchronized views of the same undirected simple graph:

* ``edges_df(spark)`` — a symmetric Spark DataFrame ``(src, dst)`` with both
  orientations materialized (Table III's dataset statistics), and
* ``adj()`` — a CSR-style numpy adjacency (``indptr``, ``nbrs``) for the
  driver-side engines, the BFS oracles and PSPC⁺'s broadcast round kernel.

Vertices are ``0..n-1`` and the graph is connected by construction (dataset
registry passes everything through ``largest_component``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graphgen.generators import _canonical


@dataclass
class Graph:
    """Undirected simple graph over vertices ``0..n-1``.

    ``edges`` is the canonical half (``src < dst`` per row); symmetric views
    are derived on demand and cached.
    """

    n: int
    edges: np.ndarray  # (m, 2) int64, src < dst
    name: str = "g"
    _adj: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False)

    @classmethod
    def from_edges(cls, edges: np.ndarray, n: int | None = None, name: str = "g") -> "Graph":
        """Self-loops and duplicate edges are dropped. ``n`` defaults to the
        largest id plus one; an id outside ``0..n-1`` raises ``ValueError``."""
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if n is None:
            n = int(e.max()) + 1 if len(e) else 0
        if len(e) and (e.min() < 0 or e.max() >= n):
            raise ValueError(f"edge endpoints must lie in 0..{n - 1}")
        return cls(n=n, edges=_canonical(e), name=name)

    @property
    def m(self) -> int:
        """Number of undirected edges."""
        return len(self.edges)

    @property
    def avg_degree(self) -> float:
        return 2.0 * self.m / self.n if self.n else 0.0

    def symmetric_edges(self) -> np.ndarray:
        """Both orientations, shape ``(2m, 2)``."""
        return np.concatenate([self.edges, self.edges[:, ::-1]])

    def adj(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR adjacency ``(indptr, nbrs)``; ``nbrs[indptr[v]:indptr[v+1]]``
        are the neighbours of ``v`` in ascending id order."""
        if self._adj is None:
            sym = self.symmetric_edges()
            order = np.lexsort((sym[:, 1], sym[:, 0]))
            sym = sym[order]
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.add.at(indptr, sym[:, 0] + 1, 1)
            np.cumsum(indptr, out=indptr)
            self._adj = (indptr, sym[:, 1].copy())
        return self._adj

    def neighbors(self, v: int) -> np.ndarray:
        indptr, nbrs = self.adj()
        return nbrs[indptr[v] : indptr[v + 1]]

    def degrees(self) -> np.ndarray:
        indptr, _ = self.adj()
        return np.diff(indptr)

    # ---- Spark views -------------------------------------------------
    def edges_pdf(self) -> pd.DataFrame:
        """Symmetric edge list as pandas (also what the DuckDB oracle sees)."""
        sym = self.symmetric_edges()
        return pd.DataFrame({"src": sym[:, 0], "dst": sym[:, 1]})

    def edges_df(self, spark: SparkSession) -> DataFrame:
        """Symmetric edge DataFrame ``(src: long, dst: long)``."""
        return spark.createDataFrame(self.edges_pdf())
