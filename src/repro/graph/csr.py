"""The CSR gather shared by BFS, the PSPC round's pull and the 2-hop probe.

A CSR here is an ``indptr`` array over rows ``0..n-1``: the entries of row
``r`` are ``indptr[r]:indptr[r+1]`` of the caller's entry columns. This
module has no dependencies beyond numpy, so the Spark entry points can ship
it to Python workers by value.
"""
from __future__ import annotations

import numpy as np


def gather(indptr: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The CSR entries of ``rows``, flattened: entry ``pos[i]`` belongs to
    ``rows[owner[i]]``; ``owner`` is non-decreasing."""
    lens = indptr[rows + 1] - indptr[rows]
    owner = np.repeat(np.arange(len(rows)), lens)
    pos = np.arange(len(owner)) + np.repeat(indptr[rows] - (np.cumsum(lens) - lens), lens)
    return owner, pos
