"""The Lemma 4 witness has two probes: the dense hub-distance table and the
2-hop ``searchsorted`` probe it falls back to. Both must give the same
labels and the same per-round counters; the table is refused for any ``n``
its ``uint16`` sentinel cannot bound, and the sentinel never certifies a
witness."""
import numpy as np
import pytest

from repro.core import pspc_local
from repro.core.hpspc import build_hpspc
from repro.core.landmark import build_landmarks
from repro.core.pspc_local import ABSENT, _witnessed, build_pspc_local, hub_table, table_fits
from repro.core.pspc_spark import build_pspc_spark
from repro.graph.gframe import Graph
from repro.ordering.degree import degree_order
from repro.ordering.hybrid import hybrid_order
from tests.test_pspc_spark import round_pulls
from tests.util import disjoint_union, small_graph

GRAPHS = ["er", "ba", "ws", "grid", "two-components", "n=0", "n=1"]


def _graph(kind: str) -> Graph:
    if kind == "two-components":
        return disjoint_union(small_graph("er", 2, n=18), small_graph("ba", 2, n=18))
    if kind == "n=0":
        return Graph.from_edges(np.empty((0, 2), dtype=np.int64), n=0)
    if kind == "n=1":
        return Graph.from_edges(np.empty((0, 2), dtype=np.int64), n=1)
    return small_graph(kind, 1, n=36)


def _probe_calls(monkeypatch) -> list[int]:
    """Count the fallback probe's calls inside the round kernel."""
    calls = []

    def counted(*args):
        calls.append(1)
        return probe(*args)

    probe = pspc_local.common_hubs
    monkeypatch.setattr(pspc_local, "common_hubs", counted)
    return calls


def _local(g: Graph, setting: str):
    order = degree_order(g)
    if setting == "landmarks":
        return build_pspc_local(g, order, landmarks=build_landmarks(g, 5))
    if setting == "weights":
        weights = np.random.default_rng(3).integers(1, 4, g.n).astype(np.float64)
        return build_pspc_local(g, order, weights=weights)
    return build_pspc_local(g, order)


@pytest.mark.parametrize("setting", ["plain", "landmarks", "weights"])
@pytest.mark.parametrize("kind", GRAPHS)
def test_table_and_probe_same_labels_and_counters(monkeypatch, kind, setting):
    g = _graph(kind)
    calls = _probe_calls(monkeypatch)
    table, table_stats = _local(g, setting)
    assert not calls  # every round read the table
    monkeypatch.setattr(pspc_local, "TABLE_BYTES", 0)
    probe, probe_stats = _local(g, setting)
    assert bool(calls) == (probe_stats.candidates_total > 0)
    assert table.sorted_tuples() == probe.sorted_tuples()
    for name in ("rounds", "eliminated", "candidates_total", "pruned_by_landmark", "pruned_by_query"):
        assert getattr(table_stats, name) == getattr(probe_stats, name), name
    assert len(table_stats.work) == len(probe_stats.work)
    assert all(np.array_equal(a, b) for a, b in zip(table_stats.work, probe_stats.work))
    if setting != "weights":
        assert table.sorted_tuples() == build_hpspc(g, degree_order(g)).sorted_tuples()


@pytest.mark.parametrize("kind", ["er", "two-components"])
def test_spark_tasks_table_and_probe_same_labels(spark, monkeypatch, kind):
    """Every round as a Spark job, where each task fills its block's rows."""
    g = _graph(kind)
    order = hybrid_order(g, 3)
    table, table_stats = build_pspc_spark(spark, g, order, n_landmarks=3, driver_pulls=0)
    monkeypatch.setattr(pspc_local, "TABLE_BYTES", 0)
    probe, probe_stats = build_pspc_spark(spark, g, order, n_landmarks=3, driver_pulls=0)
    assert all(table_stats.on_spark) and all(probe_stats.on_spark)
    assert table.sorted_tuples() == probe.sorted_tuples() == build_hpspc(g, order).sorted_tuples()
    assert table_stats.round_candidates == probe_stats.round_candidates


def test_spark_mixed_executors_table_and_probe_same_labels(spark, monkeypatch):
    """Driver rounds read the round loop's table, Spark rounds their tasks'."""
    g = small_graph("ws", 3, n=40)
    order = hybrid_order(g, 3)
    hp = build_hpspc(g, order)
    pulls = round_pulls(g, hp)
    table, table_stats = build_pspc_spark(spark, g, order, driver_pulls=max(pulls))
    monkeypatch.setattr(pspc_local, "TABLE_BYTES", 0)
    probe, probe_stats = build_pspc_spark(spark, g, order, driver_pulls=max(pulls))
    assert set(table_stats.on_spark) == {True, False}
    assert table_stats.on_spark == probe_stats.on_spark
    assert table.sorted_tuples() == probe.sorted_tuples() == hp.sorted_tuples()
    assert table_stats.round_candidates == probe_stats.round_candidates


def test_table_refused_at_sentinel_whatever_the_budget(monkeypatch):
    """Decided from the sizes alone: nothing is allocated."""
    monkeypatch.setattr(pspc_local, "TABLE_BYTES", 1 << 62)
    assert table_fits(1000, ABSENT - 1)
    assert not table_fits(1000, ABSENT)
    assert not table_fits(1, ABSENT + 1)
    assert not table_fits(0, 1 << 40)
    monkeypatch.setattr(pspc_local, "TABLE_BYTES", 2 * 30 * 40)
    assert table_fits(30, 40) and table_fits(40, 30)
    assert not table_fits(31, 40)
    monkeypatch.setattr(pspc_local, "TABLE_BYTES", 0)
    assert table_fits(0, 40) and not table_fits(1, 1)


def test_hub_table_none_past_sentinel(monkeypatch):
    monkeypatch.setattr(pspc_local, "TABLE_BYTES", 1 << 62)
    n = ABSENT
    ids = np.arange(n, dtype=np.int64)
    labels = (np.arange(n + 1), ids * (n + 1), ids, np.zeros(n, dtype=np.int32))
    assert hub_table(labels, ids[:2]) is None


def _one_hub_labels(x: int):
    """``L(w=1) = {h=2: x}``; ``u=0`` and ``h`` have no entries."""
    indptr = np.array([0, 0, 1, 1])
    return indptr, np.array([1 * 3 + 2]), np.array([2]), np.array([x], dtype=np.int32)


@pytest.mark.parametrize("x", [0, 1, 7, ABSENT - 3])
def test_absent_entry_never_certifies_a_witness(x):
    """A hub missing from ``L(u)`` (a disconnected pair) reads ABSENT, and
    ABSENT plus any label distance stays at or above every round ``d``."""
    labels = _one_hub_labels(x)
    table = hub_table(labels, np.arange(3))
    assert table[0, 2] == ABSENT
    u, w = np.array([0]), np.array([1])
    for d in (x + 1, x + 2, ABSENT - 1):
        assert not _witnessed(u, u, w, d, labels, table).any()
        assert not _witnessed(u, u, w, d, labels, None).any()
    # A hub present in L(u) at distance y certifies exactly when x + y < d.
    table[0, 2] = 1
    assert _witnessed(u, u, w, x + 2, labels, table).all()
    assert not _witnessed(u, u, w, x + 1, labels, table).any()
