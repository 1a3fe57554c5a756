"""SPC query evaluation over an ESPC index (Equations 1–2 of the paper).

Three engines, one semantics:

* :func:`query_single` — the paper's µs-level per-query loop (scan the two
  label maps, keep the min distance, sum products at the min);
* :func:`query_batch_spark` — PSPC⁺'s parallel query workload: the same
  computation as a Spark DataFrame over ``(labels ⋈ labels ⋈ queries)``,
  i.e. the "divide and conquer strategy on the query workload" of Exp 3/9;
* :data:`DUCKDB_QUERY_SQL` — the same answers as SQL (the minimum joined
  back to the pairs instead of ``min_by``) for
  ``repro.oracle.assert_equivalent``, so the Spark path is oracle-checked.

``weights`` (vertex multiplicities from the equivalence reduction) multiply a
hub's contribution when the hub is an internal vertex of the recombined path.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.labels import LabelIndex

INF = np.iinfo(np.int64).max


def query_single(
    index: LabelIndex, s: int, t: int, weights: np.ndarray | None = None
) -> tuple[int, float]:
    """Exact ``(dist, count)`` for one pair; ``(INF, 0)`` if no common hub."""
    if s == t:
        return 0, 1.0
    ls, lt = index.maps[s], index.maps[t]
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


def query_batch_spark(
    spark: SparkSession, labels: DataFrame, queries: DataFrame
) -> DataFrame:
    """Batch SPC evaluation in Spark: ``queries(qid, s, t)`` ×
    ``labels(vertex, hub, dist, cnt)`` → ``(qid, dist, spc)``.

    Every query gets exactly one row; a pair with no common hub answers
    ``(INF, 0)`` like :func:`query_single`. Counts are summed per
    ``(qid, dist)`` and the row of the least distance kept (``min_by``), so
    no aggregate is joined back. The rows equal :data:`DUCKDB_QUERY_SQL`'s,
    which is oracle-checked with ``assert_equivalent``.
    """
    a = labels.select(
        F.col("vertex").alias("s"),
        F.col("hub"),
        F.col("dist").alias("d1"),
        F.col("cnt").alias("c1"),
    )
    b = labels.select(
        F.col("vertex").alias("t"),
        F.col("hub"),
        F.col("dist").alias("d2"),
        F.col("cnt").alias("c2"),
    )
    ne = queries.where(F.col("s") != F.col("t"))
    per_dist = (
        ne.join(a, on="s")
        .join(b, on=["t", "hub"])
        .groupBy("qid", (F.col("d1") + F.col("d2")).alias("dist"))
        .agg(F.sum(F.col("c1") * F.col("c2")).alias("spc"))
        # one (INF, 0) row per pair: the whole answer when no hub is common
        .unionByName(ne.select("qid", F.lit(INF).alias("dist"), F.lit(0.0).alias("spc")))
    )
    hits = per_dist.groupBy("qid").agg(F.min("dist").alias("dist"), F.min_by("spc", "dist").alias("spc"))
    eq = queries.where(F.col("s") == F.col("t")).select(
        "qid", F.lit(0).cast("long").alias("dist"), F.lit(1.0).alias("spc")
    )
    return hits.select(
        "qid", F.col("dist").cast("long").alias("dist"), F.col("spc").cast("double").alias("spc")
    ).unionByName(eq)
