"""The 2-hop label probe of the batch query and of the Lemma 4 witness's fallback.

The SPC query (Equations 1–2) asks of a pair ``(u, w)``: which hubs do
``L(u)`` and ``L(w)`` have in common, and with which entries? Here a label
set is a CSR over vertices ``0..n-1``: ``indptr`` plus the entries sorted by
``key = vertex * n + hub``, with per-entry columns (dist, count, ...) kept
alongside by the caller. A probe gathers the smaller label of each pair and
looks each of its hubs up in the other label by ``searchsorted`` on ``key``.

The batch query (:mod:`repro.core.query`) always uses this probe. The
Lemma 4 witness of a PSPC round reads a dense hub-distance table instead
(:mod:`repro.core.pspc_local`), and asks this probe only where that table
would not fit its memory budget.
"""
from __future__ import annotations

import numpy as np

from repro.graph.csr import gather


def common_hubs(
    indptr: np.ndarray, key: np.ndarray, u: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The common hubs of the pairs ``(u[k], w[k])`` (ids in ``0..n-1``), as
    probed entries ``(i, p, j, hit)``: entry ``p[m]`` of the smaller label of
    pair ``i[m]`` shares its hub with entry ``j[m]`` of the other label
    exactly where ``hit[m]``. ``i`` is non-decreasing. The misses are left in
    so that a caller with a further condition masks once."""
    n = len(indptr) - 1
    small = indptr[u + 1] - indptr[u] <= indptr[w + 1] - indptr[w]
    a, b = np.where(small, u, w), np.where(small, w, u)
    i, p = gather(indptr, a)
    probe = b[i] * n + key[p] % n
    j = np.minimum(np.searchsorted(key, probe), len(key) - 1)
    return i, p, j, key[j] == probe
