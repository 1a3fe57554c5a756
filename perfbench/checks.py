"""Output checks computed apart from the program under test.

Nothing here imports the program's own oracles (``repro.core.bfs_oracle``,
``repro.oracle`` or ``DUCKDB_QUERY_SQL``): distances and path counts come
from a breadth-first search written here, counting in Python integers, so
they stay exact at any size.

Each check returns a list of human-readable mismatches; an empty list means
the output passed.

* :func:`check_answers` — (a) every query answer against exact BFS counts;
* :func:`check_espc` — (b) the ESPC label definition, entry by entry;
* :func:`check_same_index` — (c) two builders gave the same labels;
* :func:`check_totals` — (d) three totals reached by different paths agree.
"""
from __future__ import annotations

from collections import deque

import numpy as np


def adjacency(n: int, edges: np.ndarray) -> list[list[int]]:
    """Plain adjacency lists of an undirected edge array ``(m, 2)``."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges.tolist():
        adj[u].append(v)
        adj[v].append(u)
    return adj


def bfs_counts(adj: list[list[int]], src: int, allowed=None) -> tuple[dict[int, int], dict[int, int]]:
    """Distances and shortest-path counts from ``src`` as Python ints.

    With ``allowed`` (a predicate on vertices), the search only enters
    vertices for which it is true; ``src`` itself is always visited.
    """
    dist = {src: 0}
    cnt = {src: 1}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        dv, cv = dist[v], cnt[v]
        for u in adj[v]:
            if allowed is not None and not allowed(u):
                continue
            du = dist.get(u)
            if du is None:
                dist[u] = dv + 1
                cnt[u] = cv
                queue.append(u)
            elif du == dv + 1:
                cnt[u] += cv
    return dist, cnt


class ExactSPC:
    """Exact ``(dist, count)`` for any pair, one BFS per source on demand."""

    def __init__(self, adj: list[list[int]]):
        self.adj = adj
        self._from: dict[int, tuple[dict[int, int], dict[int, int]]] = {}

    def __call__(self, s: int, t: int) -> tuple[int, int] | None:
        """``(dist, count)``, or ``None`` when ``t`` is unreachable."""
        if s not in self._from:
            self._from[s] = bfs_counts(self.adj, s)
        dist, cnt = self._from[s]
        if t not in dist:
            return None
        return dist[t], cnt[t]


def _same_count(c, exact: int) -> bool:
    """A reported count equals the exact integer (no rounding allowed)."""
    c = float(c) if not isinstance(c, int) else c
    if isinstance(c, float) and not c.is_integer():
        return False
    return int(c) == exact


def answer_ok(exact: tuple[int, int] | None, d, c) -> bool:
    """One reported ``(dist, count)`` against the exact answer."""
    if exact is None:  # unreachable: no finite distance, zero paths
        return int(c) == 0
    return int(d) == exact[0] and _same_count(c, exact[1])


def check_answers(spc: ExactSPC, pairs: np.ndarray, dists, counts, limit: int = 5) -> list[str]:
    """(a) ``dists[i], counts[i]`` must be the exact answer for ``pairs[i]``."""
    bad = []
    for (s, t), d, c in zip(pairs.tolist(), dists, counts):
        exact = spc(s, t)
        if not answer_ok(exact, d, c):
            bad.append(f"pair ({s},{t}): got ({d}, {c}), exact {exact}")
            if len(bad) >= limit:
                break
    return bad


def check_batch(spc: ExactSPC, pairs: np.ndarray, answer, limit: int = 5) -> list[str]:
    """(a) for a batch answer ``(qid, dist, spc)``: exactly one row per
    query id, each exact."""
    qid = answer["qid"].to_numpy()
    if len(qid) != len(pairs) or len(np.unique(qid)) != len(pairs):
        return [f"batch answered {len(np.unique(qid))} distinct of {len(pairs)} queries in {len(qid)} rows"]
    order = np.argsort(qid)
    if not np.array_equal(qid[order], np.arange(len(pairs))):
        return ["batch answer has query ids outside 0..q-1"]
    return check_answers(
        spc, pairs, answer["dist"].to_numpy()[order].tolist(), answer["spc"].to_numpy()[order].tolist(), limit
    )


def check_espc(adj: list[list[int]], rank: np.ndarray, maps, spc: ExactSPC, limit: int = 5) -> list[str]:
    """(b) The ESPC label definition.

    For each hub ``w``, a BFS from ``w`` through vertices ranked below ``w``
    reaches ``u`` at distance ``d`` with ``c`` trough paths. Where ``d`` is
    the true ``dist(u, w)``, ``L(u)`` must hold exactly ``(w, d, c)``; ``L(u)``
    must hold nothing else.
    """
    rank = [int(r) for r in rank]
    bad = []
    expected = 0
    for w in range(len(adj)):
        rw = rank[w]
        dist, cnt = bfs_counts(adj, w, allowed=lambda u: rank[u] > rw)
        for u, d in dist.items():
            if spc(w, u)[0] != d:
                continue
            expected += 1
            got = maps[u].get(w)
            if got is None or int(got[0]) != d or not _same_count(got[1], cnt[u]):
                bad.append(f"L({u})[{w}] = {got}, expected ({d}, {cnt[u]})")
                if len(bad) >= limit:
                    return bad
    held = sum(len(m) for m in maps)
    if held != expected:
        bad.append(f"index holds {held} entries, the definition gives {expected}")
    return bad


def check_same_index(name: str, got: list, ref: list) -> list[str]:
    """(c) ``sorted_tuples()`` of one builder equals the reference's."""
    if got == ref:
        return []
    if len(got) != len(ref):
        return [f"{name}: {len(got)} entries, reference has {len(ref)}"]
    i = next(i for i, (a, b) in enumerate(zip(got, ref)) if a != b)
    return [f"{name}: entry {i} is {got[i]}, reference has {ref[i]}"]


def check_totals(n: int, n_entries: int, local_stats, spark_stats) -> list[str]:
    """(d) Non-self entries, counted three ways, agree: from the index,
    from PSPC's candidate accounting, and from PSPC⁺'s per-round output."""
    from_index = n_entries - n
    from_local = local_stats.candidates_total - local_stats.pruned_by_landmark - local_stats.pruned_by_query
    from_spark = sum(spark_stats.round_candidates)
    if from_index == from_local == from_spark:
        return []
    return [f"totals disagree: index {from_index}, pspc_local {from_local}, pspc_spark {from_spark}"]
