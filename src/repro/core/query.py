"""SPC query evaluation over an ESPC index (Equations 1–2 of the paper).

Three engines, one semantics:

* :func:`query_single` — the paper's µs-level per-query loop (scan the two
  label maps, keep the min distance, sum products at the min);
* :func:`query_batch_spark` — PSPC⁺'s parallel query workload, the "divide
  and conquer strategy on the query workload" of Exp 3: the index is
  broadcast once as sorted CSR arrays and one ``mapInPandas`` pass answers
  every query partition with the vectorized 2-hop probe of
  :mod:`repro.core.twohop`;
* :data:`DUCKDB_QUERY_SQL` — the same answers as a relational join
  (``queries ⋈ labels ⋈ labels``, the minimum joined back to the pairs) for
  ``repro.oracle.assert_equivalent``, so the Spark path is checked against an
  independent formulation.

Every engine answers ``(0, 1)`` for ``s == t`` and ``(INF, 0)`` for a pair
with no common hub, including a pair whose id has no label rows.

``weights`` (vertex multiplicities from the equivalence reduction) multiply a
hub's contribution when the hub is an internal vertex of the recombined path.
"""
from __future__ import annotations

import sys
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark import Broadcast, cloudpickle
from pyspark.sql import DataFrame, SparkSession

from repro.core import twohop
from repro.core.labels import LabelIndex
from repro.core.twohop import common_hubs
from repro.graph import csr

INF = np.iinfo(np.int64).max


def query_single(
    index: LabelIndex, s: int, t: int, weights: np.ndarray | None = None
) -> tuple[int, float]:
    """Exact ``(dist, count)`` for one pair; ``(INF, 0)`` if no common hub
    or an id is outside ``0..n-1``."""
    if s == t:
        return 0, 1.0
    # A negative id would wrap to the end of ``maps``; one past it raises.
    if s < 0 or t < 0:
        return INF, 0.0
    try:
        ls, lt = index.maps[s], index.maps[t]
    except IndexError:
        return INF, 0.0
    if len(ls) > len(lt):  # scan the smaller side, probe the larger
        ls, lt = lt, ls
    best_d, best_c = INF, 0.0
    for h, (d1, c1) in ls.items():
        hit = lt.get(h)
        if hit is None:
            continue
        d = d1 + hit[0]
        w = 1.0 if (weights is None or h == s or h == t) else float(weights[h])
        if d < best_d:
            best_d, best_c = d, c1 * hit[1] * w
        elif d == best_d:
            best_c += c1 * hit[1] * w
    return int(best_d), best_c


def query_many(
    index: LabelIndex, pairs: np.ndarray, weights: np.ndarray | None = None
) -> pd.DataFrame:
    """Sequential evaluation of a ``(q, 2)`` pair array →
    ``(qid, s, t, dist, spc)``."""
    rows = []
    for i, (s, t) in enumerate(pairs):
        d, c = query_single(index, int(s), int(t), weights)
        rows.append((i, int(s), int(t), int(d), float(c)))
    return pd.DataFrame(rows, columns=["qid", "s", "t", "dist", "spc"])


def random_pairs(n: int, q: int, seed: int = 0) -> np.ndarray:
    """The paper's random-query workload: ``q`` uniform (s, t) pairs."""
    g = np.random.default_rng(seed)
    return np.stack([g.integers(0, n, q), g.integers(0, n, q)], axis=1)


#: DuckDB formulation used by the oracle: tables ``labels(vertex, hub, dist,
#: cnt)`` and ``queries(qid, s, t)``. ``s == t`` pairs answer (0, 1) without
#: touching the index, and a pair with no common hub answers ``(INF, 0)``,
#: exactly like the python/Spark paths.
DUCKDB_QUERY_SQL = f"""
WITH pairs AS (
  SELECT q.qid, a.dist + b.dist AS dist, a.cnt * b.cnt AS cnt
  FROM queries q
  JOIN labels a ON a.vertex = q.s
  JOIN labels b ON b.vertex = q.t AND b.hub = a.hub
  WHERE q.s <> q.t
  UNION ALL
  SELECT qid, CAST({INF} AS BIGINT) AS dist, CAST(0.0 AS DOUBLE) AS cnt
  FROM queries WHERE s <> t
), m AS (
  SELECT qid, MIN(dist) AS dist FROM pairs GROUP BY qid
), hits AS (
  SELECT p.qid, m.dist, SUM(p.cnt) AS spc
  FROM pairs p JOIN m ON p.qid = m.qid AND p.dist = m.dist
  GROUP BY p.qid, m.dist
)
SELECT qid, CAST(dist AS BIGINT) AS dist, CAST(spc AS DOUBLE) AS spc FROM hits
UNION ALL
SELECT qid, CAST(0 AS BIGINT) AS dist, CAST(1.0 AS DOUBLE) AS spc
FROM queries WHERE s = t
"""


def _answer(index: tuple, s: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Equations 1–2 for the pairs ``(s[k], t[k])`` over the CSR index
    ``(indptr, key = vertex * n + hub, dist, cnt)``: arrays ``(dist, spc)``.
    An id outside ``0..n-1`` has no hub, so its pair answers ``(INF, 0)``
    unless ``s == t``."""
    indptr, key, dist, cnt = index
    n = len(indptr) - 1
    best = np.full(len(s), INF, dtype=np.int64)
    k = np.flatnonzero((s != t) & (s >= 0) & (s < n) & (t >= 0) & (t < n))
    i, p, j, hit = common_hubs(indptr, key, s[k], t[k])
    q, p, j = k[i[hit]], p[hit], j[hit]
    d = dist[p] + dist[j]
    np.minimum.at(best, q, d)
    at = d == best[q]
    spc = np.bincount(q[at], weights=cnt[p[at]] * cnt[j[at]], minlength=len(s))
    eq = s == t
    best[eq], spc[eq] = 0, 1.0
    return best, spc


def _kernel(index: Broadcast):
    """The ``mapInPandas`` body: each batch of ``(qid, s, t)`` rows becomes
    its ``(qid, dist, spc)`` answers."""

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        arrays = index.value
        for pdf in batches:
            dist, spc = _answer(arrays, pdf["s"].to_numpy(np.int64), pdf["t"].to_numpy(np.int64))
            yield pd.DataFrame({"qid": pdf["qid"], "dist": dist, "spc": spc})

    return run


def query_batch_spark(
    spark: SparkSession, labels: DataFrame, queries: DataFrame
) -> DataFrame:
    """Batch SPC evaluation in Spark: ``queries(qid, s, t)`` ×
    ``labels(vertex, hub, dist, cnt)`` → ``(qid, dist, spc)``, one row per
    query, equal to :data:`DUCKDB_QUERY_SQL`'s rows.

    ``labels`` is collected here, once, and broadcast as the CSR that
    :func:`_answer` reads, with ``n = max(vertex, hub) + 1``; the returned
    DataFrame is one ``mapInPandas`` stage over ``queries``, with no shuffle.
    Like :func:`~repro.core.pspc_spark.build_pspc_spark`, this assumes the
    index fits in driver and executor memory. The broadcast is not
    unpersisted here, because the returned DataFrame is lazy; Spark's cleaner
    drops it once the plan is unreachable.
    """
    pdf = labels.select("vertex", "hub", "dist", "cnt").toPandas()
    vertex, hub = pdf["vertex"].to_numpy(np.int64), pdf["hub"].to_numpy(np.int64)
    n = int(max(vertex.max(), hub.max())) + 1 if len(pdf) else 0
    key = vertex * n + hub
    by_key = np.argsort(key)
    key = key[by_key]
    arrays = (
        np.searchsorted(key, np.arange(n + 1) * n),
        key,
        pdf["dist"].to_numpy(np.int64)[by_key],
        pdf["cnt"].to_numpy(np.float64)[by_key],
    )
    # The executors' Python workers need not have ``repro`` on their path,
    # so the kernel, the 2-hop probe and its CSR gather travel by value.
    for module in (__name__, twohop.__name__, csr.__name__):
        cloudpickle.register_pickle_by_value(sys.modules[module])
    index = spark.sparkContext.broadcast(arrays)
    return queries.select("qid", "s", "t").mapInPandas(_kernel(index), "qid long, dist long, spc double")
