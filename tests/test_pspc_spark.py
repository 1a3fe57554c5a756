"""PSPC⁺ (Spark distributed builder): the index must be bit-identical to the
sequential engines with and without landmarks — the paper's
"same index for any thread count" invariant, on real distributed rounds.

These graphs are small enough that the executor gate would run every round
on the driver, so the tests pass ``driver_pulls=0`` to run real multi-round
Spark jobs; the gate itself is tested with mixed and all-driver builds.
"""
import math
import os

import numpy as np
import pytest

from repro.core.hpspc import build_hpspc
from repro.core.landmark import build_landmarks
from repro.core.pspc_local import build_pspc_local
from repro.core.pspc_spark import build_pspc_spark
from repro.graph.gframe import Graph
from repro.ordering.degree import degree_order
from repro.ordering.hybrid import hybrid_order
from tests.util import disjoint_union, path_graph, small_graph


@pytest.mark.parametrize("kind,seed", [("er", 3), ("ba", 0), ("er+ba", 1)])
def test_spark_identical_to_sequential(spark, kind, seed):
    if kind == "er+ba":  # two components: no label may cross between them
        g = disjoint_union(small_graph("er", seed, n=20), small_graph("ba", seed, n=20))
    else:
        g = small_graph(kind, seed, n=40)
    order = degree_order(g)
    hp = build_hpspc(g, order)
    sp, stats = build_pspc_spark(spark, g, order, driver_pulls=0)
    assert hp.sorted_tuples() == sp.sorted_tuples()
    assert stats.rounds >= 1 and all(stats.on_spark)
    assert stats.round_candidates[-1] == 0  # loop ended because frontier dried up


def test_spark_with_and_without_landmarks_same_index(spark):
    g = small_graph("ws", 1, n=36)
    order = hybrid_order(g, 3)
    ref, _ = build_pspc_local(g, order)
    a, _ = build_pspc_spark(spark, g, order, n_landmarks=0, driver_pulls=0)
    b, _ = build_pspc_spark(spark, g, order, n_landmarks=8, driver_pulls=0)
    assert ref.sorted_tuples() == a.sorted_tuples() == b.sorted_tuples()


def test_spark_restores_shuffle_partitions(spark):
    before = spark.conf.get("spark.sql.shuffle.partitions")
    g = small_graph("er", 5, n=25)
    build_pspc_spark(spark, g, degree_order(g))
    assert spark.conf.get("spark.sql.shuffle.partitions") == before


def test_spark_one_job_per_round(spark):
    """Each distance round is one Spark job; the guard allows two more."""
    sc = spark.sparkContext
    g = small_graph("ws", 2, n=30)
    sc.setJobGroup("pspc-spark-job-count", "build_pspc_spark job count")
    try:
        _, stats = build_pspc_spark(spark, g, degree_order(g), n_landmarks=4, driver_pulls=0)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    jobs = sc.statusTracker().getJobIdsForGroup("pspc-spark-job-count")
    assert 0 < len(jobs) <= len(stats.round_candidates) + 2


def test_spark_max_rounds_raises_instead_of_truncating(spark):
    g = path_graph(10)
    with pytest.raises(RuntimeError):
        build_pspc_spark(spark, g, degree_order(g), max_rounds=3, driver_pulls=0)


def test_spark_max_rounds_allows_empty_next_round(spark):
    """A star converges in one round: ``max_rounds=1`` is the full index."""
    g = Graph.from_edges(np.array([[0, v] for v in range(1, 20)]), n=20)
    order = degree_order(g)
    one, stats = build_pspc_spark(spark, g, order, max_rounds=1, driver_pulls=0)
    full, _ = build_pspc_spark(spark, g, order, driver_pulls=0)
    assert one.sorted_tuples() == full.sorted_tuples()
    assert stats.rounds == 1 and stats.round_candidates[-1] == 0


def test_spark_indexes_long_diameter_graphs(spark):
    """A 300-vertex path needs 298 productive rounds; the default
    ``max_rounds`` bounds them by ``n``, as ``build_pspc_local`` does."""
    g = path_graph(300)
    order = degree_order(g)
    local, _ = build_pspc_local(g, order)
    sp, stats = build_pspc_spark(spark, g, order)
    assert sp.sorted_tuples() == local.sorted_tuples()
    assert stats.rounds == 298 and stats.round_candidates[-1] == 0


DEGENERATE = {
    "empty": Graph.from_edges(np.zeros((0, 2), dtype=np.int64), n=0),
    "single": Graph.from_edges(np.zeros((0, 2), dtype=np.int64), n=1),
    "path+isolated": Graph.from_edges(np.array([[0, 1], [1, 2]]), n=5),
}


@pytest.mark.parametrize("k", [0, 2])
@pytest.mark.parametrize("name", list(DEGENERATE))
def test_degenerate_graphs_identical(spark, name, k):
    """n = 0, n = 1 and isolated vertices: every engine builds the same index."""
    g = DEGENERATE[name]
    order = degree_order(g)
    hp = build_hpspc(g, order)
    ps, _ = build_pspc_local(g, order, landmarks=build_landmarks(g, k))
    sp, _ = build_pspc_spark(spark, g, order, n_landmarks=k, driver_pulls=0)
    assert hp.sorted_tuples() == ps.sorted_tuples() == sp.sorted_tuples()


def test_spark_build_leaves_no_broadcast_files(spark):
    """Every broadcast of a build is destroyed, which deletes its pickle."""
    temp_dir = spark.sparkContext._temp_dir
    before = len(os.listdir(temp_dir))
    build_pspc_spark(spark, path_graph(10), degree_order(path_graph(10)), driver_pulls=0)
    assert len(os.listdir(temp_dir)) == before


def round_pulls(g, index) -> list[int]:
    """Per round run, the frontier entries all vertices pull past rank
    pruning: round ``d`` pulls each neighbour's labels at distance ``d - 1``
    whose hub ranks above the puller (Lemma 3)."""
    rank = index.rank
    pulls = [0] * (max(d for m in index.maps for d, _ in m.values()) + 1)  # ending with the empty round
    for u, v in g.symmetric_edges().tolist():
        for w, (d, _) in index.maps[v].items():
            pulls[d] += bool(rank[w] < rank[u])
    return pulls


def test_spark_mixed_executors_identical(spark):
    """A threshold between the smallest and the largest round sends rounds
    of one build to both executors, and the labels do not change."""
    g = small_graph("ws", 3, n=40)
    order = hybrid_order(g, 3)
    hp = build_hpspc(g, order)
    pulls = round_pulls(g, hp)
    assert min(pulls) < max(pulls)
    sp, stats = build_pspc_spark(spark, g, order, n_landmarks=4, driver_pulls=max(pulls))
    assert hp.sorted_tuples() == sp.sorted_tuples()
    assert stats.on_spark == [p >= max(pulls) for p in pulls]
    assert set(stats.on_spark) == {True, False}


def test_spark_gated_small_build_starts_no_job(spark):
    """Every round of a small graph runs on the driver: no Spark job, no
    broadcast file, the same index as the forced-Spark build."""
    sc = spark.sparkContext
    temp_dir = sc._temp_dir
    g = small_graph("ws", 2, n=30)
    order = degree_order(g)
    forced, _ = build_pspc_spark(spark, g, order, n_landmarks=4, driver_pulls=0)
    before = len(os.listdir(temp_dir))
    sc.setJobGroup("pspc-spark-gated", "build_pspc_spark on the driver")
    try:
        gated, stats = build_pspc_spark(spark, g, order, n_landmarks=4)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert sc.statusTracker().getJobIdsForGroup("pspc-spark-gated") == []
    assert len(os.listdir(temp_dir)) == before
    assert not any(stats.on_spark)
    assert gated.sorted_tuples() == forced.sorted_tuples()


@pytest.mark.parametrize("driver_pulls", [0, math.inf])
def test_spark_gate_settings_same_index(spark, driver_pulls):
    g = small_graph("ba", 4, n=40)
    order = hybrid_order(g, 3)
    ref, _ = build_pspc_spark(spark, g, order, n_landmarks=4)
    sp, stats = build_pspc_spark(spark, g, order, n_landmarks=4, driver_pulls=driver_pulls)
    assert ref.sorted_tuples() == sp.sorted_tuples()
    assert stats.on_spark == [driver_pulls == 0] * len(stats.round_candidates)



def labels_per_distance(index) -> list[int]:
    """How many labels the index holds at distance 0, 1, 2, …"""
    return np.bincount([d for m in index.maps for d, _ in m.values()]).tolist()


# A fixed gate far above these graphs' pulls keeps every round on the driver
# and the test ids stable when ``DRIVER_ROUND_PULLS`` is re-tuned.
@pytest.mark.parametrize("driver_pulls", [1_000_000, 0])
@pytest.mark.parametrize("kind,seed", [("er", 2), ("ba", 2), ("grid", 1)])
def test_labels_per_distance_agree_across_engines(spark, kind, seed, driver_pulls):
    """HP-SPC_s's labels at distance ``d`` are PSPC's round ``d``: the
    sequential baseline matches the round counts of both PSPC engines, so a
    divergence names the round it starts in."""
    g = small_graph(kind, seed, n=36)
    order = hybrid_order(g, 3)
    per_d = labels_per_distance(build_hpspc(g, order))
    sp, stats = build_pspc_spark(spark, g, order, n_landmarks=4, driver_pulls=driver_pulls)
    assert per_d == [g.n] + stats.round_candidates[:-1]
    assert stats.on_spark == [driver_pulls == 0] * len(stats.round_candidates)
    ps, _ = build_pspc_local(g, order, landmarks=build_landmarks(g, 4))
    assert labels_per_distance(ps) == per_d

BAD_ORDERS = {
    "duplicate": [0, 0, 1, 2, 3],
    "missing": [0, 1, 2, 3],
    "out-of-range": [0, 1, 2, 3, 5],
    "too-long": [0, 1, 2, 3, 4, 0],
}


@pytest.mark.parametrize("builder", ["hpspc", "pspc_local", "pspc_spark"])
@pytest.mark.parametrize("bad", list(BAD_ORDERS))
def test_builders_reject_non_permutation_order(request, builder, bad):
    g, order = path_graph(5), np.array(BAD_ORDERS[bad])
    build = {
        "hpspc": lambda: build_hpspc(g, order),
        "pspc_local": lambda: build_pspc_local(g, order),
        "pspc_spark": lambda: build_pspc_spark(request.getfixturevalue("spark"), g, order),
    }[builder]
    with pytest.raises(ValueError, match="permutation"):
        build()
