"""PSPC⁺'s thread tier: a driver round at or above ``THREAD_ROUND_PULLS``
runs the round kernel on a thread pool, one contiguous rank block per
thread; a Spark round runs the same blocks as tasks. The labels, every map's
order, the counters and the work log must equal the one-thread engine's for
any block count on either executor, and the pool must leave no thread, Spark
job or broadcast file behind.

The test graphs' rounds pull far fewer entries than the real gate, so the
tests force the tier by setting the gate to 0 and keep Spark out with
``driver_pulls=math.inf``."""
import math
import os
import sys
import threading

import numpy as np
import pytest

from repro.core import pspc_local, pspc_spark
from repro.core.hpspc import build_hpspc
from repro.core.landmark import build_landmarks
from repro.core.pspc_local import build_pspc_local
from repro.core.pspc_spark import build_pspc_spark
from repro.ordering.degree import degree_order
from repro.ordering.hybrid import hybrid_order
from tests.test_elimination import assert_same_counts, items
from tests.test_hpspc import ORDERS
from tests.test_pspc_spark import DEGENERATE, round_pulls
from tests.util import disjoint_union, path_graph, small_graph

N = 36
#: 1 block, even and uneven splits, and more blocks than vertices
PARALLELISM = [1, 2, 3, 4, N + 5]


@pytest.fixture
def threads_always(monkeypatch):
    monkeypatch.setattr(pspc_spark, "THREAD_ROUND_PULLS", 0)


def _threaded(spark, g, order, k, parallelism):
    return build_pspc_spark(spark, g, order, n_landmarks=k, driver_pulls=math.inf, parallelism=parallelism)


@pytest.mark.parametrize("parallelism", PARALLELISM)
@pytest.mark.parametrize("table", ["table", "probe"])
@pytest.mark.parametrize("landmarks", [0, 4])
@pytest.mark.parametrize("order_name", sorted(ORDERS))
def test_threaded_rounds_equal_one_thread(spark, monkeypatch, threads_always, order_name, landmarks, table, parallelism):
    g = small_graph("ba", 2, n=N)
    assert g.n == N
    if table == "probe":
        monkeypatch.setattr(pspc_local, "TABLE_BYTES", 0)
    order = ORDERS[order_name](g)
    lm = build_landmarks(g, landmarks) if landmarks else None
    local, local_stats = build_pspc_local(g, order, landmarks=lm)
    index, stats = _threaded(spark, g, order, landmarks, parallelism)
    assert all(stats.threaded) and not any(stats.on_spark)
    assert index.sorted_tuples() == local.sorted_tuples()
    assert items(index) == items(local)
    assert_same_counts(local_stats, stats)


#: per graph, the landmarks its builds use; the connected graphs are small,
#: because a Spark round pays for every task it starts
BLOCK_GRAPHS = {
    **{name: (g, 0) for name, g in DEGENERATE.items()},
    **{kind: (small_graph(kind, 2, n=20), 4) for kind in ("er", "ba", "grid")},
}
#: the executor a round's blocks run on, and their number: 1 block, uneven
#: splits and more blocks than vertices (no graph has more than 20)
EXECUTORS = [pytest.param("threads", p, id=str(p)) for p in (1, 4, 8)] + [
    pytest.param("spark", p, id=f"spark-{p}") for p in (1, 3, 25)
]


@pytest.mark.parametrize("executor,parallelism", EXECUTORS)
@pytest.mark.parametrize("name", list(BLOCK_GRAPHS))
def test_threaded_degenerate_graphs(spark, threads_always, name, executor, parallelism):
    """n = 0, n = 1, isolated vertices and small connected graphs, every
    round's blocks on the thread pool or as Spark tasks: no more blocks than
    vertices, and the index, every map's order, the counters and the work
    log are the one-thread engine's."""
    g, k = BLOCK_GRAPHS[name]
    order = degree_order(g)
    local, local_stats = build_pspc_local(g, order, landmarks=build_landmarks(g, k) if k else None)
    on_spark = executor == "spark"
    index, stats = build_pspc_spark(
        spark, g, order, n_landmarks=k, driver_pulls=0 if on_spark else math.inf, parallelism=parallelism
    )
    assert all(stats.on_spark) if on_spark else all(stats.threaded)
    assert index.sorted_tuples() == local.sorted_tuples() == build_hpspc(g, order).sorted_tuples()
    assert items(index) == items(local)
    assert_same_counts(local_stats, stats)


def test_one_build_mixes_all_three_executors(spark, monkeypatch):
    """Gates between the rounds' pulls send the rounds of one build to one
    driver thread, the thread pool and Spark, and the labels and counters
    stay those of the one-thread engine."""
    g = small_graph("ws", 3, n=40)
    order = hybrid_order(g, 3)
    hp = build_hpspc(g, order)
    pulls = round_pulls(g, hp)
    low, mid, top = sorted(set(pulls))[0], sorted(set(pulls))[1], max(pulls)
    assert low < mid < top
    monkeypatch.setattr(pspc_spark, "THREAD_ROUND_PULLS", mid)
    index, stats = build_pspc_spark(spark, g, order, n_landmarks=4, driver_pulls=top, parallelism=3)
    assert stats.on_spark == [p >= top for p in pulls]
    assert stats.threaded == [mid <= p < top for p in pulls]
    assert set(zip(stats.on_spark, stats.threaded)) == {(False, False), (False, True), (True, False)}
    local, local_stats = build_pspc_local(g, order, landmarks=build_landmarks(g, 4))
    assert index.sorted_tuples() == hp.sorted_tuples()
    assert items(index) == items(local)
    assert_same_counts(local_stats, stats)


def test_threaded_build_leaves_no_thread(spark, threads_always):
    """The pool is shut down whether the build returns or raises."""
    g = small_graph("ba", 1, n=N)
    before = threading.active_count()
    _, stats = _threaded(spark, g, degree_order(g), 4, 4)
    assert all(stats.threaded)
    assert threading.active_count() == before
    with pytest.raises(RuntimeError):
        build_pspc_spark(spark, path_graph(10), degree_order(path_graph(10)), max_rounds=3, driver_pulls=math.inf, parallelism=4)
    assert threading.active_count() == before


def test_threaded_build_starts_no_job(spark, threads_always):
    """Threaded rounds stay on the driver: no Spark job, no broadcast file."""
    sc = spark.sparkContext
    temp_dir = sc._temp_dir
    g = small_graph("ws", 2, n=30)
    before = len(os.listdir(temp_dir))
    sc.setJobGroup("pspc-threaded", "build_pspc_spark on driver threads")
    try:
        _, stats = build_pspc_spark(spark, g, degree_order(g), n_landmarks=4, parallelism=4)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert all(stats.threaded) and not any(stats.on_spark)
    assert sc.statusTracker().getJobIdsForGroup("pspc-threaded") == []
    assert len(os.listdir(temp_dir)) == before


def test_small_rounds_create_no_pool(spark, monkeypatch):
    """Rounds below the thread gate run on the calling thread; the pool is
    made at the first threaded round only."""
    pools = []

    class Counted(pspc_spark.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(pspc_spark, "ThreadPoolExecutor", Counted)
    g = small_graph("ws", 2, n=30)
    _, stats = build_pspc_spark(spark, g, degree_order(g), n_landmarks=4, parallelism=4)
    assert not any(stats.threaded) and pools == []
    monkeypatch.setattr(pspc_spark, "THREAD_ROUND_PULLS", 0)
    _, stats = build_pspc_spark(spark, g, degree_order(g), n_landmarks=4, parallelism=4)
    assert all(stats.threaded) and pools == [1]


def test_threaded_rounds_under_fast_switching(spark, threads_always):
    """More threads than cores, switching every few µs: the blocks share
    only read-only arrays, so the labels cannot change."""
    g = disjoint_union(small_graph("ba", 3, n=30), small_graph("er", 3, n=30))
    order = hybrid_order(g, 3)
    local, local_stats = build_pspc_local(g, order, landmarks=build_landmarks(g, 4))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            index, stats = _threaded(spark, g, order, 4, 16)
            assert items(index) == items(local)
            assert_same_counts(local_stats, stats)
    finally:
        sys.setswitchinterval(interval)


def test_parallelism_sets_the_spark_tasks(spark):
    sc = spark.sparkContext
    g = small_graph("er", 3, n=30)
    sc.setJobGroup("pspc-parallelism", "build_pspc_spark with 3 tasks")
    try:
        _, stats = build_pspc_spark(spark, g, degree_order(g), driver_pulls=0, parallelism=3)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert all(stats.on_spark) and not any(stats.threaded)
    tracker = sc.statusTracker()
    stages = [s for j in tracker.getJobIdsForGroup("pspc-parallelism") for s in tracker.getJobInfo(j).stageIds]
    assert stages and all(tracker.getStageInfo(s).numTasks == 3 for s in stages)


@pytest.mark.parametrize("parallelism", [0, -2])
def test_parallelism_must_be_positive(spark, parallelism):
    g = path_graph(5)
    with pytest.raises(ValueError, match="parallelism"):
        build_pspc_spark(spark, g, degree_order(g), parallelism=parallelism)


def test_default_parallelism_is_the_session_s(spark, threads_always, monkeypatch):
    """Without ``parallelism`` a threaded round is cut into
    ``defaultParallelism`` blocks."""
    blocks = []

    def counted(us, *args, **kwargs):
        blocks.append(len(us))
        return pspc_local._round(us, *args, **kwargs)

    monkeypatch.setattr(pspc_spark, "_round", counted)
    g = small_graph("ba", 2, n=N)
    build_pspc_spark(spark, g, degree_order(g), driver_pulls=math.inf)
    expected = [len(b) for b in np.array_split(np.arange(N), spark.sparkContext.defaultParallelism) if len(b)]
    assert sorted(blocks[: len(expected)]) == sorted(expected)  # round 1's blocks, in any order
