"""PSPC⁺ — the parallel label construction: mid-size distance rounds on driver
threads, large ones as one Spark job each.

This is the reproduction's realization of the paper's multi-thread algorithm
as distributed dataflow (the ``repro`` target). It is the round loop of
:mod:`repro.core.pspc_local` with a parallel round: round ``d`` reads only
labels at distance ``< d`` (Theorem 3), so a round is the same kernel
``pspc_local._round`` over any split of the vertices. On Spark it is the
broadcast-labels-plus-local-prune pattern of parallel PLL (Akiba et al.,
SIGMOD'13, §6):

==================================  =========================================
paper concept                       realization
==================================  =========================================
multi-thread round and its static   ``parallelism`` contiguous rank blocks,
schedule plan (§III-F, Theorem 3)   made once per build; one kernel call per
                                    block on the driver's thread pool, or
                                    one task per block of one Spark job
                                    (``sc.parallelize(range(k), k)``)
pull-based propagation (Def. 10)    a block gathers its vertices'
                                    neighbours' frontier entries; Spark
                                    broadcasts the blocks' edge lists once
                                    and the frontier CSR per round
rank pruning, Label Elimination     the kernel, the same one
and Merging, landmark filtering,    ``build_pspc_local`` runs over all
query pruning (Lemmas 3–4,          vertices; a thread reads its block's
§III-H)                             rows of the round loop's hub-distance
                                    table as a view, a Spark task fills them
                                    from the broadcast ``L_{<d}``
round barrier                       the futures' results, or the job's
                                    ``collect``, in block order: the blocks'
                                    labels, concatenated, are the round's,
                                    sorted by (vertex, hub), and their
                                    counters add up into the build's
                                    :class:`SparkBuildStats`
executor gate (the barrier's cost   before each round, the frontier entries
kept below the round's work)        all vertices pull past rank pruning,
                                    exactly: one ``searchsorted`` per edge
                                    (``pspc_local.pull_lengths``, whose
                                    per-edge lengths the driver kernels
                                    reuse); below :data:`THREAD_ROUND_PULLS`
                                    the round runs the kernel over all
                                    vertices on one driver thread, as
                                    ``build_pspc_local`` does; below
                                    :data:`DRIVER_ROUND_PULLS` on the
                                    driver's thread pool; at or above it as
                                    one Spark job
==================================  =========================================

Like ``build_pspc_local``, the build runs in rank space (vertex id = rank):
the blocks, the broadcast edge lists and landmark table, and every label a
block returns use ranks, and ``propagate`` maps the index back to vertex ids
once.

A Spark job costs 0.12–0.5 s however little its round computes, where the
paper's thread barrier costs microseconds; the gate keeps that fixed cost off
rounds too small to repay it. The thread pool's barrier is cheap, but the
interpreter lock serializes the kernel's Python steps and the numpy calls
that keep it, so each extra thread costs a round 0.2–0.8 ms; the thread gate
keeps rounds too small to repay that on one thread. The result is
bit-identical to the sequential engines regardless of parallelism and of
which executor ran which round — the paper's Exp 2 invariant, enforced by
tests.
"""
from __future__ import annotations

import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from pyspark import Broadcast, cloudpickle
from pyspark.sql import SparkSession

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
    #: whether each round run ran on the driver's thread pool
    threaded: list[bool] = field(default_factory=list)
    t_landmarks: float = 0.0
    t_construction: float = 0.0


#: frontier entries pulled past rank pruning per round at or above which the
#: round runs as a Spark job. Below it the driver's thread pool beats a job's
#: fixed cost; measured crossover between 18.6M and 19.3M on 4 cores
#: (EXPERIMENTS.md, Exp 1).
DRIVER_ROUND_PULLS = 19_000_000
#: pulls per round at or above which a driver round runs on the thread pool.
#: Below it the interpreter lock's serial share costs more than the threads
#: save; measured crossover between 30k and 50k on 4 cores (EXPERIMENTS.md,
#: Exp 1).
THREAD_ROUND_PULLS = 50_000


def _task(build: Broadcast, rnd: Broadcast, d: int) -> Callable[[int], tuple[Emitted, Counters]]:
    """The Spark task of round ``d``: block ``b``'s rows of the hub-distance
    table from the broadcast ``L_{<d}``, then the kernel over the block."""

    def run(b: int) -> tuple[Emitted, Counters]:
        landmarks, blocks = build.value
        lm = None if landmarks is None else LandmarkIndex(*landmarks)
        frontier, labels = rnd.value
        us, edges = blocks[b]
        return _round(us, d, edges, frontier, labels, lm, hub_table(labels, us))

    return run


def _gather(results: list[tuple[Emitted, Counters]]) -> tuple[Emitted, Counters]:
    """One round's labels and counters from its blocks' results, given in
    block order: each block's labels are sorted by (vertex, hub), and the
    blocks follow each other in rank order, so concatenation sorts them."""
    emitted = tuple(np.concatenate(col) for col in zip(*(e for e, _ in results)))
    *counts, pulls = zip(*(c for _, c in results))
    return emitted, (*map(sum, counts), np.concatenate(pulls))


@dataclass
class _BlockRounds:
    """Rounds split into contiguous rank blocks, one kernel call per block,
    run on a driver thread pool or as the tasks of one Spark job. The blocks
    are made at the first such round, the pool at the first threaded round,
    and the Spark set-up at the first Spark round, so a build whose rounds
    are all small starts no thread, runs no job and writes no broadcast
    file."""

    spark: SparkSession
    adj: Adjacency  # in rank space, as every id of the rounds
    lm: LandmarkIndex | None
    parallelism: int | None  # None: the session's defaultParallelism
    pool: ThreadPoolExecutor | None = None
    build: Broadcast | None = None

    @cached_property
    def blocks(self) -> list[tuple[np.ndarray, slice, slice, tuple[np.ndarray, np.ndarray]]]:
        """Per block: its vertices, their rows of the hub-distance table, the
        span of their edges in ``pull_edges`` over all vertices, and those
        edges as the kernel takes them."""
        indptr = self.adj[0]
        n = len(indptr) - 1
        # Read only here: each read of defaultParallelism is a call into the JVM.
        parts = self.spark.sparkContext.defaultParallelism if self.parallelism is None else self.parallelism
        # Block k holds the ranks n*k//parts up to n*(k+1)//parts. With at
        # most n blocks none is empty, except the one block of n = 0.
        parts = max(1, min(parts, n))
        bounds = [n * k // parts for k in range(parts + 1)]
        blocks = []
        for lo, hi in zip(bounds, bounds[1:]):
            us = np.arange(lo, hi, dtype=np.int64)  # vertex id = rank
            blocks.append((us, slice(lo, hi), slice(indptr[lo], indptr[hi]), pull_edges(self.adj, us)))
        return blocks

    def on_threads(
        self, d: int, frontier: Frontier, labels: Labels, table: np.ndarray | None, lengths: np.ndarray
    ) -> tuple[Emitted, Counters]:
        """Round ``d`` on the thread pool, each block reading its rows of the
        round loop's ``table`` as a view; ``lengths`` are the gate's
        ``pull_lengths`` over all edges."""
        if self.pool is None:
            self.pool = ThreadPoolExecutor(len(self.blocks), thread_name_prefix="pspc-round")
        futures = [
            self.pool.submit(
                _round, us, d, edges, frontier, labels, self.lm,
                None if table is None else table[rows], lengths=lengths[span],
            )
            for us, rows, span, edges in self.blocks
        ]
        return _gather([f.result() for f in futures])

    def on_spark(self, d: int, frontier: Frontier, labels: Labels) -> tuple[Emitted, Counters]:
        """Round ``d`` as one Spark job of one task per block. The driver
        broadcasts ``L_{<d}`` and the frontier; ``collect`` returns the
        tasks' results in block order."""
        sc = self.spark.sparkContext
        if self.build is None:
            # The executors' Python workers need not have ``repro`` on their
            # path, so the task, the kernel, the 2-hop probe, the CSR gather
            # and the landmark class travel by value.
            for module in (__name__, pspc_local.__name__, twohop.__name__, csr.__name__, LandmarkIndex.__module__):
                cloudpickle.register_pickle_by_value(sys.modules[module])
            landmarks = None if self.lm is None else (self.lm.landmarks, self.lm.dist)
            self.build = sc.broadcast((landmarks, [(us, edges) for us, _, _, edges in self.blocks]))
        rnd = sc.broadcast((frontier, labels))
        try:
            k = len(self.blocks)
            return _gather(sc.parallelize(range(k), k).map(_task(self.build, rnd, d)).collect())
        finally:
            rnd.destroy()

    def close(self) -> None:
        if self.pool is not None:
            self.pool.shutdown()
        # destroy(), not unpersist(): only destroy deletes the broadcast's
        # pickle file from the driver's temp directory.
        if self.build is not None:
            self.build.destroy()


def build_pspc_spark(
    spark: SparkSession,
    g: Graph,
    order: np.ndarray,
    n_landmarks: int = 0,
    max_rounds: int | None = None,
    driver_pulls: float = DRIVER_ROUND_PULLS,
    parallelism: int | None = None,
) -> tuple[LabelIndex, SparkBuildStats]:
    """Build the ESPC index with distance-round distributed propagation.

    Parameters mirror the paper's knobs: ``n_landmarks`` (0 disables the LL
    phase), the vertex ``order`` computed by any scheme in
    :mod:`repro.ordering`, and
    ``parallelism``, the blocks a round is split into, on driver threads or
    as Spark tasks (default: ``defaultParallelism``). A round whose vertices
    pull fewer than ``driver_pulls`` frontier entries past rank pruning runs
    on the driver, on one thread below :data:`THREAD_ROUND_PULLS` and on
    ``parallelism`` threads from it; ``driver_pulls=0`` runs every round as
    a Spark job, ``math.inf`` none.
    Raises ``RuntimeError`` if round ``max_rounds + 1`` still emits labels,
    instead of returning a partial index; by default ``max_rounds`` is
    ``g.n``, above any diameter.
    """
    if parallelism is not None and parallelism < 1:
        raise ValueError(f"parallelism must be at least 1, not {parallelism}")
    stats = SparkBuildStats()
    order, rank, adj = rank_space(g, order)

    t0 = time.perf_counter()
    lm = build_landmarks(g, n_landmarks) if n_landmarks > 0 else None
    stats.t_landmarks = time.perf_counter() - t0

    t0 = time.perf_counter()
    lm = ranked_landmarks(lm, order, rank)

    blocks = _BlockRounds(spark, adj, lm, parallelism)
    us = np.arange(g.n, dtype=np.int64)
    edges = pull_edges(adj, us)

    def run_round(d: int, frontier: Frontier, labels: Labels, table: np.ndarray | None) -> Emitted:
        # The frontier entries each edge's puller keeps past rank pruning
        # (``us`` is every id, so ``edges`` starts with the pullers).
        lengths = pull_lengths(frontier, *edges)
        pulls = lengths.sum()
        spark_sized = bool(pulls >= driver_pulls)
        threaded = not spark_sized and bool(pulls >= THREAD_ROUND_PULLS)
        if spark_sized:
            emitted, counters = blocks.on_spark(d, frontier, labels)
        elif threaded:
            emitted, counters = blocks.on_threads(d, frontier, labels, table, lengths)
        else:
            emitted, counters = _round(us, d, edges, frontier, labels, lm, table, lengths=lengths)
        stats.add(counters, rank)
        stats.on_spark.append(spark_sized)
        stats.threaded.append(threaded)
        stats.round_candidates.append(len(emitted[0]))
        return emitted

    try:
        # The rounds are at most the diameter, which is below n.
        index = propagate(rank, run_round, g.n if max_rounds is None else max_rounds)
    finally:
        blocks.close()
    stats.rounds = len(stats.work) - 1  # work ends with the empty round
    stats.t_construction = time.perf_counter() - t0
    return index, stats
