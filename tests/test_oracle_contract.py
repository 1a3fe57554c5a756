"""The DuckDB oracle itself: passes on equal results, fails loudly on row or
column drift — so a green oracle check means something. The tables are the
relational form ``(vertex, hub, dist, cnt)`` of a small ESPC index."""
import pytest

from repro.core.pspc_local import build_pspc_local
from repro.oracle import assert_equivalent
from repro.ordering.degree import degree_order
from tests.util import small_graph

PER_VERTEX_SQL = "SELECT vertex, COUNT(*) AS entries FROM labels GROUP BY vertex"


@pytest.fixture(scope="module")
def labels():
    g = small_graph("ba", 0, n=30)
    index, _ = build_pspc_local(g, degree_order(g))
    return index.to_pandas()


def test_oracle_passes_on_equal(spark, labels):
    df = spark.createDataFrame(labels)
    got = df.groupBy("vertex").count().withColumnRenamed("count", "entries")
    assert_equivalent(got, PER_VERTEX_SQL, labels=df)


def test_oracle_detects_wrong_rows(spark, labels):
    df = spark.createDataFrame(labels)
    wrong = (
        df.groupBy("vertex")
        .count()
        .withColumnRenamed("count", "entries")
        .selectExpr("vertex", "entries + 1 AS entries")
    )
    with pytest.raises(AssertionError):
        assert_equivalent(wrong, PER_VERTEX_SQL, labels=df)


def test_oracle_detects_column_mismatch(spark, labels):
    df = spark.createDataFrame(labels)
    got = df.groupBy("vertex").count()
    with pytest.raises(AssertionError):
        assert_equivalent(got, PER_VERTEX_SQL, labels=df)


def test_oracle_accepts_pandas_tables(spark, labels):
    got = spark.createDataFrame(labels).groupBy("vertex").sum("cnt").withColumnRenamed("sum(cnt)", "paths")
    assert_equivalent(got, "SELECT vertex, SUM(cnt) AS paths FROM labels GROUP BY vertex", labels=labels)
