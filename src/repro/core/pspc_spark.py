"""PSPC⁺ — the parallel label construction, one Spark job per distance round.

This is the reproduction's realization of the paper's multi-thread algorithm
as distributed dataflow (the ``repro`` target). Round ``d`` reads only labels
at distance ``< d`` (Theorem 3), so all vertices of a round are independent:
the driver broadcasts ``L_{<d}`` and the round-``(d-1)`` frontier, and one
``mapInPandas`` task per core computes the round's labels for its block of
vertices in numpy — the broadcast-labels-plus-local-prune pattern of
parallel PLL (Akiba et al., SIGMOD'13, §6):

==================================  =========================================
paper concept                       realization
==================================  =========================================
pull-based propagation (Def. 10)    a task gathers its vertices' neighbours'
                                    frontier entries (broadcast CSR
                                    adjacency and frontier)
rank pruning (Lemma 3)              keep ``rank[hub] < rank[vertex]``
Label Merging / Elimination         counts summed per ``(vertex, hub)``
                                    (``np.unique`` + ``np.bincount``)
landmark filtering (§III-H)         keep ``LandmarkIndex.bound_matrix >= d``
                                    over the broadcast landmark distances
query pruning (Lemma 4)             2-hop witness (``twohop.common_hubs``):
                                    each hub of the smaller of
                                    ``L(u)``, ``L(w)`` is looked up in the
                                    other by ``searchsorted`` on the
                                    broadcast ``L_{<d}``
schedule plan (§III-F)              ``static``: one contiguous rank block per
                                    task; ``dynamic``: vertices dealt to the
                                    tasks round-robin in rank order
round barrier                       the job's ``toPandas``: its rows are the
                                    next frontier, appended on the driver
==================================  =========================================

The result is bit-identical to the sequential engines regardless of
parallelism — the paper's Exp 2 invariant, enforced by tests.
"""
from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
import pandas as pd
from pyspark import Broadcast, cloudpickle
from pyspark.sql import SparkSession

from repro.core import twohop
from repro.core.labels import LabelIndex
from repro.core.landmark import LandmarkIndex, build_landmarks
from repro.core.twohop import common_hubs, gather
from repro.graph.gframe import Graph

#: candidates per landmark/witness batch inside a task; bounds the
#: (landmarks × batch) bound matrix and the witness probe arrays
BATCH = 1 << 14


@dataclass
class SparkBuildStats:
    """Wall-clock phase breakdown + labels emitted per round (Exp 8)."""

    rounds: int = 0
    #: labels emitted in each round run, ending with the empty round
    round_candidates: list[int] = field(default_factory=list)
    t_landmarks: float = 0.0
    t_construction: float = 0.0


def _witnessed(u: np.ndarray, w: np.ndarray, d: int, labels: tuple) -> np.ndarray:
    """Lemma 4 for candidates ``(u[i], w[i])``: does a hub ``h`` with
    ``L(u)[h] + L(w)[h] < d`` exist in ``L_{<d}``? ``labels`` is
    ``(indptr, key, dist)`` sorted by ``key = vertex * n + hub``."""
    indptr, key, dist = labels
    i, p, j, hit = common_hubs(indptr, key, u, w)
    return np.bincount(i[hit & (dist[p] + dist[j] < d)], minlength=len(u)) > 0


def _round(
    us: np.ndarray,
    d: int,
    graph: tuple,
    frontier: tuple,
    labels: tuple,
    lm: LandmarkIndex | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The labels at distance ``d`` of the vertices ``us``, as arrays
    ``(vertex, hub, cnt)`` sorted by ``(vertex, hub)``."""
    rank, indptr, nbrs = graph
    n = len(rank)
    f_indptr, f_hub, f_cnt = frontier
    # Pull (Def. 10): the round-(d-1) entries of every neighbour.
    i, e = gather(indptr, us)
    j, p = gather(f_indptr, nbrs[e])
    u, w = us[i[j]], f_hub[p]
    keep = rank[w] < rank[u]  # Lemma 3 (covers w == u too)
    # Label Merging: the counts of one (vertex, hub) add up.
    key, inv = np.unique(u[keep] * n + w[keep], return_inverse=True)
    cnt = np.bincount(inv, weights=f_cnt[p][keep], minlength=len(key))
    u, w = key // n, key % n
    alive = np.ones(len(key), dtype=bool)
    for lo in range(0, len(key), BATCH):
        bu, bw = u[lo : lo + BATCH], w[lo : lo + BATCH]
        ok = np.ones(len(bu), dtype=bool)
        if lm is not None:  # §III-H: a landmark certifies dist(u, w) < d
            ok = lm.bound_matrix(bu, bw) >= d
        ok[ok] = ~_witnessed(bu[ok], bw[ok], d, labels)
        alive[lo : lo + BATCH] = ok
    return u[alive], w[alive], cnt[alive]


def _kernel(build: Broadcast, rnd: Broadcast, d: int):
    """The ``mapInPandas`` body of round ``d``: each input row is a block id,
    each output batch that block's round-``d`` labels."""

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        rank, indptr, nbrs, landmarks, blocks = build.value
        lm = None if landmarks is None else LandmarkIndex(*landmarks)
        frontier, labels = rnd.value
        for pdf in batches:
            for b in pdf["id"].tolist():
                u, w, c = _round(blocks[b], d, (rank, indptr, nbrs), frontier, labels, lm)
                yield pd.DataFrame({"vertex": u, "hub": w, "cnt": c})

    return run


def build_pspc_spark(
    spark: SparkSession,
    g: Graph,
    order: np.ndarray,
    n_landmarks: int = 0,
    schedule: str = "dynamic",
    max_rounds: int = 256,
) -> tuple[LabelIndex, SparkBuildStats]:
    """Build the ESPC index with distance-round distributed propagation.

    Parameters mirror the paper's knobs: ``n_landmarks`` (0 disables the LL
    phase), ``schedule`` ∈ {"static", "dynamic"} (§III-F), and the vertex
    ``order`` computed by any scheme in :mod:`repro.ordering`. Raises
    ``RuntimeError`` if round ``max_rounds + 1`` still emits labels, instead
    of returning a partial index.
    """
    if schedule not in ("static", "dynamic"):
        raise ValueError(f"unknown schedule {schedule!r}")
    stats = SparkBuildStats()
    n = g.n
    order = np.asarray(order, dtype=np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)

    t0 = time.perf_counter()
    lm = build_landmarks(g, n_landmarks) if n_landmarks > 0 else None
    stats.t_landmarks = time.perf_counter() - t0

    t0 = time.perf_counter()
    # The executors' Python workers need not have ``repro`` on their path,
    # so the kernel, the 2-hop probe and the landmark class travel by value.
    for module in (__name__, twohop.__name__, LandmarkIndex.__module__):
        cloudpickle.register_pickle_by_value(sys.modules[module])
    sc = spark.sparkContext
    parts = sc.defaultParallelism
    if schedule == "static":
        blocks = np.array_split(order, parts)
    else:
        blocks = [order[k::parts] for k in range(parts)]
    landmarks = None if lm is None else (lm.landmarks, lm.dist)
    build = sc.broadcast((rank, *g.adj(), landmarks, blocks))
    tasks = spark.range(parts, numPartitions=parts)

    # L_0: every vertex is its own hub. ``frontier`` is the CSR
    # (indptr, hub, cnt) of the last round's labels, ``labels`` the CSR
    # (indptr, key = vertex * n + hub, dist) of L_{<d}.
    ids = np.arange(n, dtype=np.int64)
    rows = [(ids, ids, np.zeros(n, dtype=np.int32), np.ones(n))]
    frontier = (np.arange(n + 1), ids, np.ones(n))
    labels = (np.arange(n + 1), ids * (n + 1), np.zeros(n, dtype=np.int32))
    schema = "vertex long, hub long, cnt double"
    try:
        for d in range(1, max_rounds + 2):
            rnd = sc.broadcast((frontier, labels))
            try:
                pdf = tasks.mapInPandas(_kernel(build, rnd, d), schema).toPandas()
            finally:
                rnd.unpersist()
            stats.round_candidates.append(len(pdf))
            if len(pdf) == 0:
                break
            if d > max_rounds:
                raise RuntimeError(f"round {d} still emitted {len(pdf)} labels after max_rounds={max_rounds}")
            stats.rounds = d
            key = pdf["vertex"].to_numpy() * n + pdf["hub"].to_numpy()
            by_key = np.argsort(key)
            key, cnt = key[by_key], pdf["cnt"].to_numpy()[by_key]
            u, w = key // n, key % n
            dist = np.full(len(key), d, dtype=np.int32)
            rows.append((u, w, dist, cnt))
            frontier = (np.searchsorted(u, np.arange(n + 1)), w, cnt)
            key = np.concatenate([labels[1], key])
            by_key = np.argsort(key)
            key, dist = key[by_key], np.concatenate([labels[2], dist])[by_key]
            labels = (np.searchsorted(key, np.arange(n + 1) * n), key, dist)
    finally:
        build.unpersist()
    stats.t_construction = time.perf_counter() - t0

    pdf = pd.DataFrame(dict(zip(["vertex", "hub", "dist", "cnt"], map(np.concatenate, zip(*rows)))))
    return LabelIndex.from_records(n, rank, pdf), stats
