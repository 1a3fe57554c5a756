"""Query evaluation: the python scan, the Spark batch path and the DuckDB
oracle must agree — ``assert_equivalent`` is the arbiter for every
DataFrame-shaped query result."""
import numpy as np
import pandas as pd
import pytest

from repro.core.bfs_oracle import all_pairs_spc
from repro.core.pspc_local import build_pspc_local
from repro.core.query import (
    DUCKDB_QUERY_SQL,
    INF,
    query_batch_spark,
    query_many,
    query_single,
    random_pairs,
)
from repro.oracle import assert_equivalent
from repro.ordering.degree import degree_order
from tests.util import disjoint_union, small_graph


def _index_and_pairs(kind, seed, n=32, q=60):
    g = small_graph(kind, seed, n=n)
    index, _ = build_pspc_local(g, degree_order(g))
    pairs = random_pairs(g.n, q, seed=seed)
    return g, index, pairs


@pytest.mark.parametrize("kind,seed", [("er", 0), ("er", 1), ("ba", 0), ("ws", 0)])
def test_spark_batch_matches_duckdb_oracle(spark, kind, seed):
    """The Spark 2-hop batch evaluation vs the join formulation in DuckDB."""
    g, index, pairs = _index_and_pairs(kind, seed)
    labels = index.to_pandas()
    queries = pd.DataFrame({"qid": np.arange(len(pairs)), "s": pairs[:, 0], "t": pairs[:, 1]})
    got = query_batch_spark(spark, spark.createDataFrame(labels), spark.createDataFrame(queries))
    assert_equivalent(got, DUCKDB_QUERY_SQL, labels=labels, queries=queries)


@pytest.mark.parametrize("seed", range(3))
def test_spark_batch_matches_python(spark, seed):
    g, index, pairs = _index_and_pairs("er", seed)
    queries = pd.DataFrame({"qid": np.arange(len(pairs)), "s": pairs[:, 0], "t": pairs[:, 1]})
    got = (
        query_batch_spark(
            spark,
            spark.createDataFrame(index.to_pandas()),
            spark.createDataFrame(queries),
        )
        .toPandas()
        .sort_values("qid")
        .reset_index(drop=True)
    )
    ref = query_many(index, pairs)
    assert len(got) == len(ref)
    assert np.array_equal(got["dist"].to_numpy(), ref["dist"].to_numpy())
    assert np.allclose(got["spc"].to_numpy(), ref["spc"].to_numpy())


@pytest.mark.parametrize("seed", range(4))
def test_query_many_matches_oracle(seed):
    g, index, pairs = _index_and_pairs("ba", seed)
    D, C = all_pairs_spc(g)
    res = query_many(index, pairs)
    for row in res.itertuples():
        assert row.dist == D[row.s, row.t]
        assert abs(row.spc - C[row.s, row.t]) < 1e-6


def test_disconnected_pair_answered_alike(spark):
    """A pair across two components, or with an id outside ``0..n-1``:
    Spark, DuckDB and ``query_single`` all answer ``(INF, 0)`` (``(0, 1)``
    when ``s == t``), and every query gets exactly one row."""
    left = small_graph("er", 0, n=16)
    g = disjoint_union(left, small_graph("ba", 0, n=16))
    index, _ = build_pspc_local(g, degree_order(g))
    a, n = left.n, g.n  # first vertex of the second component, first id past the graph
    pairs = np.array([[0, a], [a + 1, 2], [1, 2], [a, a + 3], [4, 4], [a + 2, a + 2]])
    outside = np.array([[-1, 3], [5, n], [n, n], [-1, -1]])
    labels = index.to_pandas()
    both = np.concatenate([pairs, outside])
    queries = pd.DataFrame({"qid": np.arange(len(both)), "s": both[:, 0], "t": both[:, 1]})
    got = query_batch_spark(spark, spark.createDataFrame(labels), spark.createDataFrame(queries))
    assert_equivalent(got, DUCKDB_QUERY_SQL, labels=labels, queries=queries)
    rows = got.toPandas().sort_values("qid").reset_index(drop=True)
    assert rows["qid"].tolist() == list(range(len(both)))
    ref = query_many(index, pairs)
    assert rows["dist"].tolist()[: len(pairs)] == ref["dist"].tolist()
    assert rows["spc"].tolist()[: len(pairs)] == ref["spc"].tolist()
    assert list(zip(rows["dist"], rows["spc"]))[len(pairs) :] == [(INF, 0.0), (INF, 0.0), (0, 1.0), (0, 1.0)]
    assert query_single(index, 0, a) == (INF, 0.0)


def test_out_of_range_ids_answered_alike(spark):
    """Ids ``-1`` and ``n``: ``query_single``, the Spark batch and DuckDB
    all answer ``(INF, 0)``, and ``(0, 1)`` when ``s == t``."""
    g, index, _ = _index_and_pairs("er", 0)
    n = g.n
    pairs = np.array([[-1, 0], [0, -1], [n - 1, n], [n, 0], [-1, n], [n, -1], [-1, -1], [n, n]])
    want = [(INF, 0.0)] * 6 + [(0, 1.0)] * 2
    assert [query_single(index, s, t) for s, t in pairs.tolist()] == want
    labels = index.to_pandas()
    queries = pd.DataFrame({"qid": np.arange(len(pairs)), "s": pairs[:, 0], "t": pairs[:, 1]})
    got = query_batch_spark(spark, spark.createDataFrame(labels), spark.createDataFrame(queries))
    assert_equivalent(got, DUCKDB_QUERY_SQL, labels=labels, queries=queries)
    rows = got.toPandas().sort_values("qid")
    assert list(zip(rows["dist"].tolist(), rows["spc"].tolist())) == want


def test_spark_batch_is_one_stage_per_job(spark):
    """The batch query is the labels collect plus one kernel job, each a
    single stage: no shuffle."""
    g, index, pairs = _index_and_pairs("ba", 1)
    labels = spark.createDataFrame(index.to_pandas())
    queries = spark.createDataFrame(pd.DataFrame({"qid": np.arange(len(pairs)), "s": pairs[:, 0], "t": pairs[:, 1]}))
    sc = spark.sparkContext
    sc.setJobGroup("spark-batch-job-shape", "query_batch_spark job shape")
    try:
        got = query_batch_spark(spark, labels, queries).toPandas()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup("spark-batch-job-shape")
    assert 0 < len(jobs) <= 2
    assert [len(tracker.getJobInfo(j).stageIds) for j in jobs] == [1] * len(jobs)
    assert len(got) == len(pairs)


def test_query_identity_pair():
    g, index, _ = _index_and_pairs("er", 0)
    assert query_single(index, 3, 3) == (0, 1.0)


def test_random_pairs_deterministic():
    a = random_pairs(100, 50, seed=1)
    b = random_pairs(100, 50, seed=1)
    assert np.array_equal(a, b)
    assert a.shape == (50, 2)
