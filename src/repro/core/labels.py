"""ESPC label index model shared by HP-SPC_s, PSPC and PSPC⁺.

A label entry ``(w, d, c)`` in ``L(u)`` means: ``d = dist(u, w)`` and ``c``
counts the *trough* shortest ``u–w`` paths — those on which ``w`` is the
highest-ranked vertex under the index's total vertex order. The index is an
Exact Shortest Path Covering (Definition 2 of the paper): every shortest
``s–t`` path is covered exactly once by its highest-ranked vertex, so the
2-hop query (Equations 1–2) returns the exact count.

``LabelIndex`` is the in-driver representation (per-vertex hub→(dist, count)
maps, optimal for the µs-level query loop the paper times). It is built from
the per-round label arrays of the PSPC round loop, which run in rank space
and are mapped back to vertex ids here (``from_rounds``); the
relational form ``(vertex, hub, dist, cnt)`` bridges to Spark and to the
DuckDB oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

#: accounting size of one label entry, matching the paper's C++ layout
#: (int32 hub, uint8 dist, int64 count, padded) — used for the MB column.
BYTES_PER_ENTRY = 16


@dataclass
class LabelIndex:
    """ESPC index over vertices ``0..n-1`` under the total order ``rank``.

    ``rank[v]`` is the position of ``v`` in the order — **smaller rank means
    higher priority** (rank 0 is the top hub). ``maps[u]`` maps hub ``w`` to
    ``(dist, count)``.
    """

    n: int
    rank: np.ndarray
    maps: list[dict[int, tuple[int, float]]] = field(repr=False)

    # ---- accounting --------------------------------------------------
    @property
    def n_entries(self) -> int:
        return sum(len(m) for m in self.maps)

    @property
    def size_mb(self) -> float:
        return self.n_entries * BYTES_PER_ENTRY / (1024 * 1024)

    @property
    def avg_label_len(self) -> float:
        return self.n_entries / self.n if self.n else 0.0

    # ---- canonical forms --------------------------------------------
    def sorted_tuples(self) -> list[tuple[int, int, int, float]]:
        """Canonical ``(vertex, hub, dist, count)`` list for equality tests
        across builders (HP-SPC_s == PSPC == PSPC⁺ must hold)."""
        out = []
        for u, m in enumerate(self.maps):
            for w, (d, c) in m.items():
                out.append((u, w, int(d), float(c)))
        out.sort()
        return out

    def to_pandas(self) -> pd.DataFrame:
        """The rows of :meth:`sorted_tuples` as ``(vertex, hub, dist, cnt)``
        columns of dtypes ``int64, int64, int64, float64``."""
        lens = np.fromiter(map(len, self.maps), dtype=np.int64, count=self.n)
        total = int(lens.sum())
        vertex = np.repeat(np.arange(self.n, dtype=np.int64), lens)
        hub = np.fromiter(chain.from_iterable(self.maps), dtype=np.int64, count=total)
        values = chain.from_iterable(chain.from_iterable(m.values() for m in self.maps))
        dc = np.fromiter(values, dtype=np.float64, count=2 * total).reshape(total, 2)
        by = np.lexsort((hub, vertex))
        return pd.DataFrame(
            {"vertex": vertex[by], "hub": hub[by], "dist": dc[by, 0].astype(np.int64), "cnt": dc[by, 1]}
        )

    def to_spark(self, spark: SparkSession) -> DataFrame:
        return spark.createDataFrame(self.to_pandas())

    @classmethod
    def from_rounds(
        cls, rank: np.ndarray, rounds: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> LabelIndex:
        """Build from the label arrays ``(vertex, hub, cnt)`` of distance
        rounds ``0, 1, 2, …`` in rank space (vertex id = rank), the shape the
        round loop produces; each map lists its hubs by distance, then by
        hub id."""
        rank = np.asarray(rank)
        n = len(rank)
        order = np.empty(n, dtype=np.int64)
        order[rank] = np.arange(n)
        maps: list[dict[int, tuple[int, float]]] = [dict() for _ in range(n)]
        for d, (u, w, cnt) in enumerate(rounds):
            u, w = order[u], order[w]
            by = np.argsort(u * n + w)
            for v, h, c in zip(u[by].tolist(), w[by].tolist(), cnt[by].tolist()):
                maps[v][h] = (d, c)
        return cls(n=n, rank=rank, maps=maps)
