"""PSPC⁺ — the parallel label construction, one Spark job per large distance round.

This is the reproduction's realization of the paper's multi-thread algorithm
as distributed dataflow (the ``repro`` target). It is the round loop of
:mod:`repro.core.pspc_local` with a distributed round: round ``d`` reads only
labels at distance ``< d`` (Theorem 3), so all vertices of a round are
independent. The driver broadcasts ``L_{<d}`` and the round-``(d-1)``
frontier, and one ``mapInPandas`` task per core runs the round kernel
``pspc_local._round`` for its block of vertices — the
broadcast-labels-plus-local-prune pattern of parallel PLL (Akiba et al.,
SIGMOD'13, §6):

==================================  =========================================
paper concept                       realization
==================================  =========================================
pull-based propagation (Def. 10)    a task gathers its vertices' neighbours'
                                    frontier entries (broadcast per-block
                                    edge lists and frontier CSR)
rank pruning, Label Merging,        the kernel ``pspc_local._round``, the
landmark filtering, query pruning   same one ``build_pspc_local`` runs
(Lemmas 3–4, §III-H)                over all vertices on the driver; a task
                                    fills its block's rows of the witness's
                                    hub-distance table from ``L_{<d}``
schedule plan (§III-F)              ``static``: one contiguous rank block per
                                    task; ``dynamic``: vertices dealt to the
                                    tasks round-robin in rank order
round barrier                       the job's ``toPandas``: its rows are the
                                    next frontier, merged on the driver by
                                    ``pspc_local.propagate``
executor gate (the barrier's cost   before each round, the frontier entries
kept below the round's work)        all vertices would pull; below
                                    ``DRIVER_ROUND_PULLS`` the round runs the
                                    kernel over all vertices on the driver,
                                    as ``build_pspc_local`` does, and at or
                                    above it as one Spark job
==================================  =========================================

A Spark job costs 0.12–0.23 s however little its round computes, where the
paper's thread barrier costs microseconds; the gate keeps that fixed cost off
rounds too small to repay it. The result is bit-identical to the sequential
engines regardless of parallelism and of which executor ran which round —
the paper's Exp 2 invariant, enforced by tests.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark import Broadcast, cloudpickle
from pyspark.sql import DataFrame, SparkSession

from repro.core import pspc_local, twohop
from repro.core.labels import LabelIndex
from repro.core.landmark import LandmarkIndex, build_landmarks
from repro.core.pspc_local import Emitted, Frontier, Labels, _round, hub_table, propagate, pull_edges, rank_of
from repro.graph import csr
from repro.graph.gframe import Graph


@dataclass
class SparkBuildStats:
    """Wall-clock phase breakdown + labels emitted per round (Exp 8)."""

    rounds: int = 0
    #: labels emitted in each round run, ending with the empty round
    round_candidates: list[int] = field(default_factory=list)
    #: whether each round run ran as a Spark job (else on the driver)
    on_spark: list[bool] = field(default_factory=list)
    t_landmarks: float = 0.0
    t_construction: float = 0.0


#: estimated frontier entries pulled per round at or above which the round
#: runs as a Spark job. Below it the driver kernel beats a job's fixed cost;
#: measured crossover about 2.2M on 4 cores (EXPERIMENTS.md, Exp 1).
DRIVER_ROUND_PULLS = 2_500_000


def _kernel(build: Broadcast, rnd: Broadcast, d: int):
    """The ``mapInPandas`` body of round ``d``: each input row is a block id,
    each output batch that block's round-``d`` labels."""

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        rank, landmarks, blocks = build.value
        lm = None if landmarks is None else LandmarkIndex(*landmarks)
        frontier, labels = rnd.value
        for pdf in batches:
            for b in pdf["id"].tolist():
                us, src, dst = blocks[b]
                table = hub_table(labels, us)
                (u, w, c), _ = _round(us, d, (rank, src, dst), frontier, labels, lm, table)
                yield pd.DataFrame({"vertex": u, "hub": w, "cnt": c})

    return run


@dataclass
class _SparkRounds:
    """Rounds run as one Spark job each. The set-up they share — pickling by
    value, the per-task blocks, the ``build`` broadcast and the task rows —
    is made at the first such round, so a build whose rounds all run on the
    driver starts no Spark job and writes no broadcast file."""

    spark: SparkSession
    g: Graph
    order: np.ndarray
    rank: np.ndarray
    lm: LandmarkIndex | None
    schedule: str
    build: Broadcast | None = None
    tasks: DataFrame | None = None

    def _start(self) -> None:
        # The executors' Python workers need not have ``repro`` on their path,
        # so the kernel, the 2-hop probe, the CSR gather and the landmark
        # class travel by value.
        for module in (__name__, pspc_local.__name__, twohop.__name__, csr.__name__, LandmarkIndex.__module__):
            cloudpickle.register_pickle_by_value(sys.modules[module])
        parts = self.spark.sparkContext.defaultParallelism
        if self.schedule == "static":
            blocks = np.array_split(self.order, parts)
        else:
            blocks = [self.order[k::parts] for k in range(parts)]
        blocks = [(us, *pull_edges(self.g, us)) for us in blocks]
        landmarks = None if self.lm is None else (self.lm.landmarks, self.lm.dist)
        self.build = self.spark.sparkContext.broadcast((self.rank, landmarks, blocks))
        self.tasks = self.spark.range(parts, numPartitions=parts)

    def __call__(self, d: int, frontier: Frontier, labels: Labels) -> Emitted:
        if self.build is None:
            self._start()
        rnd = self.spark.sparkContext.broadcast((frontier, labels))
        try:
            schema = "vertex long, hub long, cnt double"
            pdf = self.tasks.mapInPandas(_kernel(self.build, rnd, d), schema).toPandas()
        finally:
            rnd.destroy()
        # Each task's rows come sorted; sort the round's rows across tasks.
        u, w, cnt = pdf["vertex"].to_numpy(), pdf["hub"].to_numpy(), pdf["cnt"].to_numpy()
        by_key = np.argsort(u * len(self.rank) + w)
        return u[by_key], w[by_key], cnt[by_key]

    def close(self) -> None:
        # destroy(), not unpersist(): only destroy deletes the broadcast's
        # pickle file from the driver's temp directory.
        if self.build is not None:
            self.build.destroy()


def build_pspc_spark(
    spark: SparkSession,
    g: Graph,
    order: np.ndarray,
    n_landmarks: int = 0,
    schedule: str = "dynamic",
    max_rounds: int = 256,
    driver_pulls: float = DRIVER_ROUND_PULLS,
) -> tuple[LabelIndex, SparkBuildStats]:
    """Build the ESPC index with distance-round distributed propagation.

    Parameters mirror the paper's knobs: ``n_landmarks`` (0 disables the LL
    phase), ``schedule`` ∈ {"static", "dynamic"} (§III-F), and the vertex
    ``order`` computed by any scheme in :mod:`repro.ordering`. A round whose
    vertices would pull fewer than ``driver_pulls`` frontier entries runs on
    the driver; ``0`` runs every round as a Spark job, ``math.inf`` none.
    Raises ``RuntimeError`` if round ``max_rounds + 1`` still emits labels,
    instead of returning a partial index.
    """
    if schedule not in ("static", "dynamic"):
        raise ValueError(f"unknown schedule {schedule!r}")
    stats = SparkBuildStats()
    order = np.asarray(order, dtype=np.int64)
    rank = rank_of(order, g.n)

    t0 = time.perf_counter()
    lm = build_landmarks(g, n_landmarks) if n_landmarks > 0 else None
    stats.t_landmarks = time.perf_counter() - t0

    t0 = time.perf_counter()
    on_spark = _SparkRounds(spark, g, order, rank, lm, schedule)
    us = np.arange(g.n, dtype=np.int64)
    edges = (rank, *pull_edges(g, us))
    nbrs = edges[2]

    def run_round(d: int, frontier: Frontier, labels: Labels, table: np.ndarray | None) -> Emitted:
        # The frontier entries all vertices would pull before rank pruning.
        spark_sized = bool(np.diff(frontier[0])[nbrs].sum() >= driver_pulls)
        if spark_sized:
            u, w, cnt = on_spark(d, frontier, labels)
        else:
            (u, w, cnt), _ = _round(us, d, edges, frontier, labels, lm, table)
        stats.on_spark.append(spark_sized)
        stats.round_candidates.append(len(u))
        return u, w, cnt

    try:
        index = propagate(rank, run_round, max_rounds)
    finally:
        on_spark.close()
    stats.rounds = len(stats.round_candidates) - 1
    stats.t_construction = time.perf_counter() - t0
    return index, stats
