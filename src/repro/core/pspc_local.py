"""PSPC — the paper's distance-round label propagation and its round kernel.

One distance round (Definition 8, pull paradigm) is the numpy kernel
:func:`_round`, and one driver loop, :func:`propagate`, runs the rounds.
:func:`build_pspc_local` is the "PSPC (1 thread)" row of Exp 1: the loop with
the kernel over all vertices on the driver. PSPC⁺
(:mod:`repro.core.pspc_spark`) is the same loop with the same kernel run as
one Spark job per round.

The rounds run in rank space: :func:`rank_space` relabels the graph once so
that a vertex's id is its rank, and :func:`propagate` maps the labels back
once, at the end. Adjacency rows keep their original neighbour order, so the
counts of a label add up in the same order, and the labels are bit-identical
to those of a build in vertex ids. Round ``d``:

1. every vertex ``u`` pulls the round-``(d-1)`` labels of its neighbours
   (the frontier CSR) whose hub ranks above ``u`` (Lemma 3). A frontier row
   is sorted by hub, which is its rank, so Lemma 3 keeps a prefix of it, and
   one ``searchsorted`` per edge finds its length before anything is
   gathered;
2. **Label Elimination**: a pulled entry ``(u, w)`` is dropped when ``w`` is
   already in ``L_{<d}(u)``, at a smaller distance: one read ``D[u, w] !=
   ABSENT`` of the hub-distance table below, or a ``searchsorted`` on the
   sorted keys of ``L_{<d}`` where the table is refused;
3. **Label Merging**: the counts of one ``(u, hub)`` add up;
4. a candidate ``(u, w)`` is dropped if a landmark certifies
   ``dist(u, w) < d`` (§III-H), and otherwise iff ``Query(w, u, L_{<d}) < d``
   (Lemma 4). The witness walks ``L_{<d}(w)`` only — every common hub is in
   it — and reads ``dist(u, hub)`` from a dense hub-distance table
   ``D[u, hub]`` over ``L_{<d}``, the T-array of pruned landmark labelling
   (Akiba et al., SIGMOD'13) kept for all vertices at once. :func:`propagate`
   fills it once from ``L_0`` and writes each round's ``L_d`` into it after
   the round, so round ``d`` still reads only ``L_{<d}``; a Spark task fills
   the rows of its own block from the broadcast ``L_{<d}``. A landmark
   cannot witness a candidate the landmark filter passed, so the walk skips
   the top ranks that are all landmarks (:func:`landmark_prefix`). Where the
   table would exceed :data:`TABLE_BYTES`, or ``n`` reaches its ``uint16``
   sentinel, the witness falls back to the 2-hop probe of
   :mod:`repro.core.twohop` on the sorted ``L_{<d}``;
5. survivors are ``L_d(u)`` and the next round's frontier.

No candidate in round ``d`` reads anything written in round ``d``: the
distance dependency (Theorem 3) replaced the order dependency, which is the
entire point of the paper. :class:`BuildStats` records, per round and per
vertex, the frontier entries pulled past rank pruning, and where the pulled
entries went (eliminated, merged into candidates, pruned by a landmark or by
the witness); the thread-scaling experiments (Exp 4/5b) replay the work
vectors through :mod:`repro.sim.threads`.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.labels import LabelIndex
from repro.core.landmark import LandmarkIndex
from repro.core.twohop import common_hubs
from repro.graph.csr import gather, runs
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

#: ``(indptr, key, hub, cnt)``: the CSR of the last round's labels, sorted by
#: ``key = vertex * n + hub``
Frontier = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
#: ``(indptr, key, hub, dist)``: the CSR of ``L_{<d}``, sorted by
#: ``key = vertex * n + hub``
Labels = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
#: ``(vertex, hub, cnt)`` of the labels one round emits
Emitted = tuple[np.ndarray, np.ndarray, np.ndarray]
#: ``(indptr, nbrs)``: a CSR adjacency
Adjacency = tuple[np.ndarray, np.ndarray]
#: a round's ``(eliminated, merged, pruned_by_landmark, pruned_by_query,
#: pulls)``; ``pulls[k]`` counts the entries the k-th vertex pulled past rank
#: pruning
Counters = tuple[int, int, int, int, np.ndarray]


@dataclass
class BuildStats:
    """Per-round instrumentation of a PSPC build (:func:`build_pspc_local`).

    A pulled entry past rank pruning is either eliminated or merged into a
    candidate; ``candidates_total - pruned_by_landmark - pruned_by_query`` is
    the number of labels emitted."""

    rounds: int = 0
    #: work[d][u]: frontier entries vertex u pulled past rank pruning in
    #: round d+1; one array per round run, ending with the empty round
    work: list[np.ndarray] = field(default_factory=list)
    #: pulled entries dropped by Label Elimination (hub already in L_{<d}(u))
    eliminated: int = 0
    #: merged candidates (vertex, hub) of the entries not eliminated
    candidates_total: int = 0
    pruned_by_landmark: int = 0
    pruned_by_query: int = 0

    def add(self, counters: Counters, rank: np.ndarray) -> None:
        """Count one round's :func:`_round` counters, whose ``pulls`` are
        indexed by rank."""
        eliminated, merged, by_landmark, by_query, pulls = counters
        self.eliminated += eliminated
        self.candidates_total += merged
        self.pruned_by_landmark += by_landmark
        self.pruned_by_query += by_query
        self.work.append(pulls[rank])


def rank_of(order: np.ndarray, n: int) -> np.ndarray:
    """``rank[v]``: the position of ``v`` in ``order`` (0 = top hub). Raises
    ``ValueError`` unless ``order`` is a permutation of ``0..n-1``."""
    order = np.asarray(order, dtype=np.int64)
    if not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError(f"order is not a permutation of the {n} vertices")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    return rank


def rank_space(g: Graph, order: np.ndarray) -> tuple[np.ndarray, np.ndarray, Adjacency]:
    """``(order, rank, adj)``: the validated order, :func:`rank_of` it, and
    the adjacency relabelled so that vertex id = rank. Row ``r`` holds the
    ranks of the neighbours of ``order[r]`` in their original order, so the
    counts of one label add up in the same order as they would in vertex
    ids."""
    rank = rank_of(order, g.n)
    order = np.asarray(order, dtype=np.int64)
    indptr, nbrs = g.adj()
    lens = np.diff(indptr)[order]
    _, pos = runs(indptr[order], lens)
    ranked = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(lens, out=ranked[1:])
    return order, rank, (ranked, rank[nbrs[pos]])


def ranked_landmarks(lm: LandmarkIndex | None, order: np.ndarray, rank: np.ndarray) -> LandmarkIndex | None:
    """The landmark table in rank space: row ``r`` is vertex ``order[r]``."""
    return None if lm is None else LandmarkIndex(landmarks=rank[lm.landmarks], dist=lm.dist[order])


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


def _merge(
    key: np.ndarray, c: np.ndarray, us: np.ndarray, labels: Labels, table: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, int]:
    """Label Elimination and Label Merging of the pulled entries ``key = r *
    n + w`` (hub ``w`` of vertex ``us[r]``) with counts ``c``: an entry whose
    hub is already in ``L_{<d}(us[r])`` is dropped, and the counts of one
    key add up in entry order. Returns the merged keys, sorted, their counts
    and the number of entries eliminated.

    ``key`` is the entry's flat index into the hub-distance ``table``, so one
    read tells whether its hub is held; without a table, ``searchsorted`` on
    the sorted keys of ``L_{<d}`` answers."""
    if table is not None:
        fresh = table.reshape(-1)[key] == ABSENT
    else:
        n = len(labels[0]) - 1
        l_key = labels[1]
        probe = us[key // n] * n + key % n
        fresh = l_key[np.minimum(np.searchsorted(l_key, probe), len(l_key) - 1)] != probe
    merged, inv = np.unique(key[fresh], return_inverse=True)
    return merged, np.bincount(inv, weights=c[fresh], minlength=len(merged)), len(key) - np.count_nonzero(fresh)


def _witnessed(
    r: np.ndarray,
    u: np.ndarray,
    w: np.ndarray,
    d: int,
    labels: Labels,
    table: np.ndarray | None,
    skip: int = 0,
) -> np.ndarray:
    """Lemma 4 for candidates ``(u[i], w[i])``: does a hub ``h`` with
    ``L(u)[h] + L(w)[h] < d`` exist in ``L_{<d}``? ``r[i]`` is the row of
    ``u[i]`` in the hub-distance ``table``; without a table, the 2-hop probe
    of :mod:`repro.core.twohop` answers. The table's walk leaves out the
    hubs below ``skip``, which the caller knows cannot witness."""
    indptr, key, hub, dist = labels
    if table is None:
        i, p, j, hit = common_hubs(indptr, key, u, w)
        return np.bincount(i[hit & (dist[p] + dist[j] < d)], minlength=len(u)) > 0
    # Every common hub is in L(w); an absent hub reads ABSENT, never below d - dist.
    starts = indptr[w] if skip == 0 else np.searchsorted(key, w * (len(indptr) - 1) + skip)
    i, p = runs(starts, indptr[w + 1] - starts)
    at = r[i] * table.shape[1] + hub[p]  # a flat index gathers faster than a 2-D one
    return np.bincount(i[table.reshape(-1)[at] < d - dist[p]], minlength=len(w)) > 0


def landmark_prefix(lm: LandmarkIndex) -> int:
    """``K``: the ranks ``0..K-1`` are all landmarks (ids are ranks). A
    candidate the landmark filter passed has ``dist(u, ℓ) + dist(ℓ, w) >= d``
    for every landmark ``ℓ``, and label distances are exact, so no landmark
    is its witness: the witness skips the hubs below ``K``."""
    top = np.sort(lm.landmarks) == np.arange(lm.k)
    return lm.k if top.all() else int(np.argmin(top))


def pull_edges(adj: Adjacency, us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency of the vertices ``us``, flattened: ``us[src[k]]`` –
    ``dst[k]`` for every edge, in the order the round kernel pulls them."""
    indptr, nbrs = adj
    src, e = gather(indptr, us)
    return src, nbrs[e]


def pull_lengths(frontier: Frontier, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per edge ``u[k]`` – ``v[k]`` (rank-space ids), the entries of ``v``'s
    frontier row that ``u`` pulls past rank pruning. A row is sorted by hub
    and a hub's id is its rank, so Lemma 3 keeps the row's prefix of hubs
    below ``u``."""
    f_indptr, f_key = frontier[0], frontier[1]
    return np.searchsorted(f_key, v * (len(f_indptr) - 1) + u) - f_indptr[v]


def _round(
    us: np.ndarray,
    d: int,
    edges: tuple[np.ndarray, np.ndarray],
    frontier: Frontier,
    labels: Labels,
    lm: LandmarkIndex | None,
    table: np.ndarray | None,
    weights: np.ndarray | None = None,
    lengths: np.ndarray | None = None,
) -> tuple[Emitted, Counters]:
    """The labels at distance ``d`` of the vertices ``us``, as arrays
    ``(vertex, hub, cnt)`` sorted by (position in ``us``, hub), and the
    round's :data:`Counters`, with ``pulls`` in the order of ``us``. Every id
    is a rank.

    ``edges`` is ``pull_edges(adj, us)`` over the rank-space adjacency, and
    ``table`` is ``hub_table(labels, us)`` or ``None`` for the 2-hop probe.
    ``weights`` are the multiplicities of the equivalence reduction (§IV-B),
    by rank: extending a path through a neighbour ``v`` that is not its hub
    scales its count by ``weights[v]``. ``lengths`` is ``pull_lengths(frontier,
    us[src], v)`` where the caller has counted it already.
    """
    src, v = edges
    f_indptr, _, f_hub, f_cnt = frontier
    n = len(f_indptr) - 1
    # Pull (Def. 10) with Lemma 3: the prefix of each neighbour's round-(d-1)
    # row whose hubs rank above the puller.
    if lengths is None:
        lengths = pull_lengths(frontier, us[src], v)
    j, p = runs(f_indptr[v], lengths)
    owner, w, c = src[j], f_hub[p], f_cnt[p]
    # Summed per edge, not per entry: a round pulls far more entries than it
    # has edges. The float sums are exact below 2^53.
    pulls = np.bincount(src, weights=lengths, minlength=len(us)).astype(np.int64)
    if weights is not None:
        v = v[j]
        c = np.where(w == v, c, c * weights[v])
    # Label Elimination (a hub already in L_{<d}(u) is at a smaller
    # distance) and Label Merging (the counts of one (vertex, hub) add up).
    key, cnt, eliminated = _merge(owner * n + w, c, us, labels, table)
    r, w = key // n, key % n
    u = us[r]
    alive = np.empty(len(key), dtype=bool)
    by_landmark = 0
    skip = 0 if lm is None else landmark_prefix(lm)
    for lo in range(0, len(key), BATCH):
        br, bu, bw = r[lo : lo + BATCH], u[lo : lo + BATCH], w[lo : lo + BATCH]
        if lm is None:
            alive[lo : lo + BATCH] = ~_witnessed(br, bu, bw, d, labels, table)
            continue
        # §III-H: a landmark certifies dist(u, w) < d
        ok = lm.bound_matrix(bu, bw) >= d
        by_landmark += len(ok) - np.count_nonzero(ok)
        ok[ok] = ~_witnessed(br[ok], bu[ok], bw[ok], d, labels, table, skip)
        alive[lo : lo + BATCH] = ok
    emitted = np.count_nonzero(alive)
    by_query = len(key) - by_landmark - emitted
    return (u[alive], w[alive], cnt[alive]), (eliminated, len(key), by_landmark, by_query, pulls)


def propagate(
    rank: np.ndarray,
    run_round: Callable[[int, Frontier, Labels, np.ndarray | None], Emitted],
    max_rounds: int,
) -> LabelIndex:
    """Run distance rounds ``d = 1, 2, …`` until one emits no label.

    The rounds run in rank space: vertex id = rank. ``run_round(d, frontier,
    labels, table)`` returns round ``d``'s labels ``(vertex, hub, cnt)``
    sorted by ``(vertex, hub)``; ``table`` is the hub-distance table of
    ``labels`` over all vertices, or ``None`` where :func:`table_fits`
    refuses it. The index is mapped back to vertex ids once, at the end.
    Raises ``RuntimeError`` if round ``max_rounds + 1`` still emits labels,
    instead of returning a partial index.
    """
    n = len(rank)
    ids = np.arange(n, dtype=np.int64)
    bounds = np.arange(n + 1)
    # L_0: every vertex is its own hub.
    rounds: list[Emitted] = [(ids, ids, np.ones(n))]
    frontier = (bounds, ids * (n + 1), ids, np.ones(n))
    labels = (bounds, ids * (n + 1), ids, np.zeros(n, dtype=np.int32))
    table = hub_table(labels, ids)
    for d in range(1, max_rounds + 2):
        u, w, cnt = run_round(d, frontier, labels, table)
        if len(u) == 0:
            break
        if d > max_rounds:
            raise RuntimeError(f"round {d} still emitted {len(u)} labels after max_rounds={max_rounds}")
        rounds.append((u, w, cnt))
        key = u * n + w
        frontier = (np.searchsorted(u, bounds), key, w, cnt)
        # Merge L_d into the sorted L_{<d}: a stable sort of two sorted runs.
        key = np.concatenate([labels[1], key])
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
    order, rank, adj = rank_space(g, order)
    us = np.arange(g.n, dtype=np.int64)
    edges = pull_edges(adj, us)
    lm = ranked_landmarks(landmarks, order, rank)
    if weights is not None:
        weights = np.asarray(weights)[order]
    stats = BuildStats()

    def run_round(d: int, frontier: Frontier, labels: Labels, table: np.ndarray | None) -> Emitted:
        emitted, counters = _round(us, d, edges, frontier, labels, lm, table, weights)
        stats.add(counters, rank)
        return emitted

    # The rounds are at most the diameter, which is below n.
    index = propagate(rank, run_round, g.n)
    stats.rounds = len(stats.work) - 1  # work ends with the empty round
    return index, stats
