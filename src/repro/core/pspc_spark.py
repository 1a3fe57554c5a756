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
rank pruning, Label Elimination     the kernel ``pspc_local._round``, the
and Merging, landmark filtering,    same one ``build_pspc_local`` runs
query pruning (Lemmas 3–4,          over all vertices on the driver; a task
§III-H)                             fills its block's rows of the witness's
                                    hub-distance table from ``L_{<d}``
schedule plan (§III-F)              ``static``: one contiguous rank block per
                                    task; ``dynamic``: vertices dealt to the
                                    tasks round-robin in rank order
round barrier                       the job's ``toPandas``: its rows are the
                                    next frontier, merged on the driver by
                                    ``pspc_local.propagate``, and each task's
                                    counters (:data:`PULLS`, :data:`COUNTER`
                                    rows), summed into the build's
                                    :class:`SparkBuildStats`
executor gate (the barrier's cost   before each round, the frontier entries
kept below the round's work)        all vertices pull past rank pruning,
                                    exactly: one ``searchsorted`` per edge
                                    (``pspc_local.pull_lengths``); below
                                    ``DRIVER_ROUND_PULLS`` the round runs the
                                    kernel over all vertices on the driver,
                                    as ``build_pspc_local`` does, and at or
                                    above it as one Spark job
==================================  =========================================

Like ``build_pspc_local``, the build runs in rank space (vertex id = rank):
the blocks, the broadcast edge lists and landmark table, and every label a
task returns use ranks, and ``propagate`` maps the index back to vertex ids
once.

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
from repro.core.pspc_local import (
    Adjacency,
    BuildStats,
    Counters,
    Emitted,
    Frontier,
    Labels,
    _round,
    hub_table,
    propagate,
    pull_edges,
    pull_lengths,
    rank_space,
    ranked_landmarks,
)
from repro.graph import csr
from repro.graph.gframe import Graph


@dataclass
class SparkBuildStats(BuildStats):
    """The counters of :class:`BuildStats`, from whichever executor ran each
    round, plus the wall-clock phase breakdown and the labels emitted per
    round (Exp 8)."""

    #: labels emitted in each round run, ending with the empty round
    round_candidates: list[int] = field(default_factory=list)
    #: whether each round run ran as a Spark job (else on the driver)
    on_spark: list[bool] = field(default_factory=list)
    t_landmarks: float = 0.0
    t_construction: float = 0.0


#: frontier entries pulled past rank pruning per round at or above which the
#: round runs as a Spark job. Below it the driver kernel beats a job's fixed
#: cost; measured crossover between 4.0M and 4.3M on 4 cores (EXPERIMENTS.md,
#: Exp 1).
DRIVER_ROUND_PULLS = 4_200_000

#: the ``vertex`` of a task's output row that carries a count, not a label:
#: ``hub`` is then the vertex whose pulls are ``cnt``, or the index of the
#: counter in :data:`~repro.core.pspc_local.Counters` that ``cnt`` adds to
PULLS, COUNTER = -1, -2


def _kernel(build: Broadcast, rnd: Broadcast, d: int):
    """The ``mapInPandas`` body of round ``d``: each input row is a block id,
    each output batch that block's round-``d`` labels, then its counters as
    :data:`PULLS` and :data:`COUNTER` rows."""

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        landmarks, blocks = build.value
        lm = None if landmarks is None else LandmarkIndex(*landmarks)
        frontier, labels = rnd.value
        for pdf in batches:
            for b in pdf["id"].tolist():
                us, src, dst = blocks[b]
                table = hub_table(labels, us)
                (u, w, c), (*counts, pulls) = _round(us, d, (src, dst), frontier, labels, lm, table)
                yield pd.DataFrame({"vertex": u, "hub": w, "cnt": c})
                yield pd.DataFrame({"vertex": PULLS, "hub": us, "cnt": pulls.astype(float)})
                yield pd.DataFrame({"vertex": COUNTER, "hub": np.arange(len(counts)), "cnt": np.array(counts, dtype=float)})

    return run


@dataclass
class _SparkRounds:
    """Rounds run as one Spark job each. The set-up they share — pickling by
    value, the per-task blocks, the ``build`` broadcast and the task rows —
    is made at the first such round, so a build whose rounds all run on the
    driver starts no Spark job and writes no broadcast file."""

    spark: SparkSession
    adj: Adjacency  # in rank space, as every id of the rounds
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
        ids = np.arange(len(self.adj[0]) - 1, dtype=np.int64)  # vertex id = rank
        if self.schedule == "static":
            blocks = np.array_split(ids, parts)
        else:
            blocks = [ids[k::parts] for k in range(parts)]
        blocks = [(us, *pull_edges(self.adj, us)) for us in blocks]
        landmarks = None if self.lm is None else (self.lm.landmarks, self.lm.dist)
        self.build = self.spark.sparkContext.broadcast((landmarks, blocks))
        self.tasks = self.spark.range(parts, numPartitions=parts)

    def __call__(self, d: int, frontier: Frontier, labels: Labels) -> tuple[Emitted, Counters]:
        if self.build is None:
            self._start()
        rnd = self.spark.sparkContext.broadcast((frontier, labels))
        try:
            schema = "vertex long, hub long, cnt double"
            pdf = self.tasks.mapInPandas(_kernel(self.build, rnd, d), schema).toPandas()
        finally:
            rnd.destroy()
        u, w, cnt = pdf["vertex"].to_numpy(), pdf["hub"].to_numpy(), pdf["cnt"].to_numpy()
        n = len(self.adj[0]) - 1
        pulls = np.zeros(n, dtype=np.int64)
        pulls[w[u == PULLS]] = cnt[u == PULLS]
        # eliminated, merged, pruned by a landmark, pruned by the witness
        counts = np.bincount(w[u == COUNTER], weights=cnt[u == COUNTER], minlength=4).astype(np.int64)
        # Each task's rows come sorted; sort the round's rows across tasks.
        u, w, cnt = u[u >= 0], w[u >= 0], cnt[u >= 0]
        by_key = np.argsort(u * n + w)
        return (u[by_key], w[by_key], cnt[by_key]), (*counts.tolist(), pulls)

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
    vertices pull fewer than ``driver_pulls`` frontier entries past rank
    pruning runs on the driver; ``0`` runs every round as a Spark job,
    ``math.inf`` none.
    Raises ``RuntimeError`` if round ``max_rounds + 1`` still emits labels,
    instead of returning a partial index.
    """
    if schedule not in ("static", "dynamic"):
        raise ValueError(f"unknown schedule {schedule!r}")
    stats = SparkBuildStats()
    order, rank, adj = rank_space(g, order)

    t0 = time.perf_counter()
    lm = build_landmarks(g, n_landmarks) if n_landmarks > 0 else None
    stats.t_landmarks = time.perf_counter() - t0

    t0 = time.perf_counter()
    lm = ranked_landmarks(lm, order, rank)
    on_spark = _SparkRounds(spark, adj, lm, schedule)
    us = np.arange(g.n, dtype=np.int64)
    edges = pull_edges(adj, us)

    def run_round(d: int, frontier: Frontier, labels: Labels, table: np.ndarray | None) -> Emitted:
        # The frontier entries all vertices pull past rank pruning (``us`` is
        # every id, so ``edges`` starts with the pullers).
        spark_sized = bool(pull_lengths(frontier, *edges).sum() >= driver_pulls)
        if spark_sized:
            emitted, counters = on_spark(d, frontier, labels)
        else:
            emitted, counters = _round(us, d, edges, frontier, labels, lm, table)
        stats.add(counters, rank)
        stats.on_spark.append(spark_sized)
        stats.round_candidates.append(len(emitted[0]))
        return emitted

    try:
        index = propagate(rank, run_round, max_rounds)
    finally:
        on_spark.close()
    stats.rounds = len(stats.work) - 1  # work ends with the empty round
    stats.t_construction = time.perf_counter() - t0
    return index, stats
