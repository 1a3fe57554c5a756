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
    return runs(indptr[rows], indptr[rows + 1] - indptr[rows])


def runs(starts: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The positions ``starts[k] .. starts[k] + lens[k] - 1`` of every run
    ``k``, flattened: position ``pos[i]`` belongs to run ``owner[i]``;
    ``owner`` is non-decreasing."""
    # ndarray methods: the rounds of small graphs are a few µs of numpy calls.
    owner = np.arange(len(lens)).repeat(lens)
    pos = np.arange(len(owner)) + (starts - lens.cumsum() + lens).repeat(lens)
    return owner, pos
