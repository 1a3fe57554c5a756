"""PSPC — the paper's distance-round label propagation and its round kernel.

One distance round (Definition 8, pull paradigm) is the numpy kernel
:func:`_round`, and one driver loop, :func:`propagate`, runs the rounds.
:func:`build_pspc_local` is the "PSPC (1 thread)" row of Exp 1: the loop with
the kernel over all vertices on the driver. PSPC⁺
(:mod:`repro.core.pspc_spark`) is the same loop with the same kernel run as
one Spark job per round. Round ``d``:

1. every vertex ``u`` pulls the round-``(d-1)`` labels of its neighbours
   (the frontier CSR);
2. entries with ``rank(hub) >= rank(u)`` are dropped (Lemma 3);
3. **Label Merging**: the counts of one ``(u, hub)`` add up. Label
   Elimination is implicit, because a hub already in ``L(u)`` at a smaller
   distance is its own 2-hop witness below;
4. a candidate ``(u, w)`` is dropped if a landmark certifies
   ``dist(u, w) < d`` (§III-H), and otherwise iff ``Query(w, u, L_{<d}) < d``
   (Lemma 4). The witness walks ``L_{<d}(w)`` only — every common hub is in
   it — and reads ``dist(u, hub)`` from a dense hub-distance table
   ``D[u, hub]`` over ``L_{<d}``, the T-array of pruned landmark labelling
   (Akiba et al., SIGMOD'13) kept for all vertices at once. :func:`propagate`
   fills it once from ``L_0`` and writes each round's ``L_d`` into it after
   the round, so round ``d`` still reads only ``L_{<d}``; a Spark task fills
   the rows of its own block from the broadcast ``L_{<d}``. Where the table
   would exceed :data:`TABLE_BYTES`, or ``n`` reaches its ``uint16``
   sentinel, the witness falls back to the 2-hop probe of
   :mod:`repro.core.twohop` on the sorted ``L_{<d}``;
5. survivors are ``L_d(u)`` and the next round's frontier.

No candidate in round ``d`` reads anything written in round ``d``: the
distance dependency (Theorem 3) replaced the order dependency, which is the
entire point of the paper. :class:`BuildStats` records, per round and per
vertex, the frontier entries pulled past rank pruning; the thread-scaling
experiments (Exp 4/5b) replay these work vectors through
:mod:`repro.sim.threads`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.labels import LabelIndex
from repro.core.landmark import LandmarkIndex
from repro.core.twohop import common_hubs
from repro.graph.csr import gather
from repro.graph.gframe import Graph

#: candidates per landmark/witness batch of one round; bounds the
#: (batch × landmarks) bound matrix and the witness probe arrays
BATCH = 1 << 14

#: bytes the dense hub-distance table of one executor may take; above it the
#: Lemma 4 witness runs the 2-hop probe on the sorted ``L_{<d}`` instead
TABLE_BYTES = 256 << 20
#: the hub-distance table's entry for a hub not in the vertex's label; no
#: distance reaches it, because the table is used only while ``n < ABSENT``
ABSENT = 0xFFFF

#: ``(indptr, hub, cnt)``: the CSR of the last round's labels
Frontier = tuple[np.ndarray, np.ndarray, np.ndarray]
#: ``(indptr, key, hub, dist)``: the CSR of ``L_{<d}``, sorted by
#: ``key = vertex * n + hub``
Labels = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
#: ``(vertex, hub, cnt)`` of the labels one round emits
Emitted = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass
class BuildStats:
    """Per-round instrumentation emitted by :func:`build_pspc_local`."""

    rounds: int = 0
    #: work[d][u]: frontier entries vertex u pulled past rank pruning in
    #: round d+1; one array per round run, ending with the empty round
    work: list[np.ndarray] = field(default_factory=list)
    candidates_total: int = 0
    pruned_by_landmark: int = 0
    pruned_by_query: int = 0


def rank_of(order: np.ndarray, n: int) -> np.ndarray:
    """``rank[v]``: the position of ``v`` in ``order`` (0 = top hub). Raises
    ``ValueError`` unless ``order`` is a permutation of ``0..n-1``."""
    order = np.asarray(order, dtype=np.int64)
    if not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError(f"order is not a permutation of the {n} vertices")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return rank


def table_fits(rows: int, n: int) -> bool:
    """Whether a hub-distance table of ``rows`` vertices over ``n`` hubs is
    kept: it fits :data:`TABLE_BYTES`, and every distance is below
    :data:`ABSENT`."""
    return n < ABSENT and rows * n * 2 <= TABLE_BYTES


def hub_table(labels: Labels, us: np.ndarray) -> np.ndarray | None:
    """The rows ``D[k, hub] = dist(us[k], hub)`` of the labels ``L_{<d}``,
    :data:`ABSENT` where ``hub`` is not in ``L(us[k])``; ``None`` where
    :func:`table_fits` refuses the table."""
    indptr, _, hub, dist = labels
    n = len(indptr) - 1
    if not table_fits(len(us), n):
        return None
    table = np.full((len(us), n), ABSENT, dtype=np.uint16)
    k, p = gather(indptr, us)
    table[k, hub[p]] = dist[p]
    return table


def _witnessed(
    r: np.ndarray, u: np.ndarray, w: np.ndarray, d: int, labels: Labels, table: np.ndarray | None
) -> np.ndarray:
    """Lemma 4 for candidates ``(u[i], w[i])``: does a hub ``h`` with
    ``L(u)[h] + L(w)[h] < d`` exist in ``L_{<d}``? ``r[i]`` is the row of
    ``u[i]`` in the hub-distance ``table``; without a table, the 2-hop probe
    of :mod:`repro.core.twohop` answers."""
    indptr, key, hub, dist = labels
    if table is None:
        i, p, j, hit = common_hubs(indptr, key, u, w)
        return np.bincount(i[hit & (dist[p] + dist[j] < d)], minlength=len(u)) > 0
    # Every common hub is in L(w); an absent hub reads ABSENT, never below d - dist.
    i, p = gather(indptr, w)
    at = r[i] * table.shape[1] + hub[p]  # a flat index gathers faster than a 2-D one
    return np.bincount(i[table.reshape(-1)[at] < d - dist[p]], minlength=len(w)) > 0


def pull_edges(g: Graph, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency of the vertices ``us``, flattened: ``us[src[k]]`` –
    ``dst[k]`` for every edge, in the order the round kernel pulls them."""
    indptr, nbrs = g.adj()
    src, e = gather(indptr, us)
    return src, nbrs[e]


def _round(
    us: np.ndarray,
    d: int,
    edges: tuple,
    frontier: Frontier,
    labels: Labels,
    lm: LandmarkIndex | None,
    table: np.ndarray | None,
    weights: np.ndarray | None = None,
) -> tuple[Emitted, tuple[int, int, int, np.ndarray]]:
    """The labels at distance ``d`` of the vertices ``us``, as arrays
    ``(vertex, hub, cnt)`` sorted by (position in ``us``, hub), and the
    round's counters ``(merged, pruned_by_landmark, pruned_by_query, pulls)``,
    where ``pulls[k]`` counts the entries ``us[k]`` pulled past rank pruning.

    ``edges`` is ``(rank, *pull_edges(g, us))``, and ``table`` is
    ``hub_table(labels, us)`` or ``None`` for the 2-hop probe. ``weights``
    are the multiplicities of the equivalence reduction (§IV-B): extending a
    path through a neighbour ``v`` that is not its hub scales its count by
    ``weights[v]``.
    """
    rank, src, v = edges
    n = len(rank)
    f_indptr, f_hub, f_cnt = frontier
    # Pull (Def. 10): the round-(d-1) entries of every neighbour.
    j, p = gather(f_indptr, v)
    owner, w = src[j], f_hub[p]
    keep = rank[w] < rank[us[owner]]  # Lemma 3 (covers w == u too)
    owner, w, c = owner[keep], w[keep], f_cnt[p[keep]]
    pulls = np.bincount(owner, minlength=len(us))
    if weights is not None:
        v = v[j[keep]]
        c = np.where(w == v, c, c * weights[v])
    # Label Merging: the counts of one (vertex, hub) add up.
    key, inv = np.unique(owner * n + w, return_inverse=True)
    cnt = np.bincount(inv, weights=c, minlength=len(key))
    r, w = key // n, key % n
    u = us[r]
    alive = np.empty(len(key), dtype=bool)
    by_landmark = 0
    for lo in range(0, len(key), BATCH):
        br, bu, bw = r[lo : lo + BATCH], u[lo : lo + BATCH], w[lo : lo + BATCH]
        if lm is None:
            alive[lo : lo + BATCH] = ~_witnessed(br, bu, bw, d, labels, table)
            continue
        # §III-H: a landmark certifies dist(u, w) < d
        ok = lm.bound_matrix(bu, bw) >= d
        by_landmark += len(ok) - int(ok.sum())
        ok[ok] = ~_witnessed(br[ok], bu[ok], bw[ok], d, labels, table)
        alive[lo : lo + BATCH] = ok
    emitted = int(alive.sum())
    by_query = len(key) - by_landmark - emitted
    return (u[alive], w[alive], cnt[alive]), (len(key), by_landmark, by_query, pulls)


def propagate(
    rank: np.ndarray,
    run_round: Callable[[int, Frontier, Labels, np.ndarray | None], Emitted],
    max_rounds: int,
) -> LabelIndex:
    """Run distance rounds ``d = 1, 2, …`` until one emits no label.

    ``run_round(d, frontier, labels, table)`` returns round ``d``'s labels
    ``(vertex, hub, cnt)`` sorted by ``(vertex, hub)``; ``table`` is the
    hub-distance table of ``labels`` over all vertices, or ``None`` where
    :func:`table_fits` refuses it. Raises ``RuntimeError`` if round
    ``max_rounds + 1`` still emits labels, instead of returning a partial
    index.
    """
    n = len(rank)
    ids = np.arange(n, dtype=np.int64)
    bounds = np.arange(n + 1)
    # L_0: every vertex is its own hub.
    rounds: list[Emitted] = [(ids, ids, np.ones(n))]
    frontier = (bounds, ids, np.ones(n))
    labels = (bounds, ids * (n + 1), ids, np.zeros(n, dtype=np.int32))
    table = hub_table(labels, ids)
    for d in range(1, max_rounds + 2):
        u, w, cnt = run_round(d, frontier, labels, table)
        if len(u) == 0:
            break
        if d > max_rounds:
            raise RuntimeError(f"round {d} still emitted {len(u)} labels after max_rounds={max_rounds}")
        rounds.append((u, w, cnt))
        frontier = (np.searchsorted(u, bounds), w, cnt)
        # Merge L_d into the sorted L_{<d}: a stable sort of two sorted runs.
        key = np.concatenate([labels[1], u * n + w])
        by_key = np.argsort(key, kind="stable")
        hub = np.concatenate([labels[2], w])[by_key]
        dist = np.concatenate([labels[3], np.full(len(u), d, dtype=np.int32)])[by_key]
        key = key[by_key]
        labels = (np.searchsorted(key, bounds * n), key, hub, dist)
        if table is not None:
            table[u, w] = d
    return LabelIndex.from_rounds(rank, rounds)


def build_pspc_local(
    g: Graph,
    order: np.ndarray,
    landmarks: LandmarkIndex | None = None,
    weights: np.ndarray | None = None,
) -> tuple[LabelIndex, BuildStats]:
    """Distance-round ESPC construction; returns the index plus round stats.

    ``weights`` enables multiplicity-weighted counting for the equivalence
    reduction (§IV-B): extending a path through vertex ``v`` multiplies its
    count by ``weights[v]``.
    """
    rank = rank_of(order, g.n)
    us = np.arange(g.n, dtype=np.int64)
    edges = (rank, *pull_edges(g, us))
    stats = BuildStats()

    def run_round(d: int, frontier: Frontier, labels: Labels, table: np.ndarray | None) -> Emitted:
        emitted, counters = _round(us, d, edges, frontier, labels, landmarks, table, weights)
        merged, by_landmark, by_query, pulls = counters
        stats.candidates_total += merged
        stats.pruned_by_landmark += by_landmark
        stats.pruned_by_query += by_query
        stats.work.append(pulls)
        return emitted

    # The rounds are at most the diameter, which is below n.
    index = propagate(rank, run_round, g.n)
    stats.rounds = len(stats.work) - 1  # work ends with the empty round
    return index, stats
