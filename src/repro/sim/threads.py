"""Thread-scaling cost model (Exp 4 / Exp 5(b) substrate).

A shared ``local[*]`` SparkSession cannot be relaunched with 1..20 cores per
measurement, so the thread sweep is reproduced the way the paper's numbers
actually arise: per round, the work of a vertex is the number of candidate
label entries it processes (measured by :mod:`repro.core.pspc_local` on the
real run), threads execute vertex tasks under a schedule plan, and each round
ends with a synchronization barrier.

* ``static`` (§III-F "node-order-based"): thread ``i`` owns the contiguous
  rank block ``[i·n/t, (i+1)·n/t)`` — Example 3's imbalanced plan (the top
  block receives almost no candidates by Lemma 3, low-rank blocks receive
  most).
* ``dynamic`` ("cost-function-based"): tasks are dispatched
  longest-processing-time-first to the least-loaded thread — an optimistic
  but standard model of the paper's dynamic allocation.

Speedup(t) = T(1)/T(t) with T(t) = Σ_rounds (makespan_round(t) + barrier),
barrier charged only for t > 1. The barrier fraction (default 2% of the mean
round's work) is what bends the curves from the ideal 20× to the paper's
12–17× band.
"""
from __future__ import annotations

import heapq

import numpy as np


def round_makespan(
    work: np.ndarray,
    threads: int,
    schedule: str,
    rank: np.ndarray | None = None,
    n: int | None = None,
) -> float:
    """Makespan of one round's vertex tasks on ``threads`` workers;
    ``work[v]`` is the load of vertex ``v`` (0 for a vertex with no task)."""
    work = np.asarray(work)
    if threads <= 1:
        return float(work.sum())
    if schedule == "static":
        if rank is None or n is None:
            raise ValueError("static schedule needs rank and n")
        block = max(1, -(-n // threads))  # ceil(n / t)
        owner = np.minimum(threads - 1, rank // block)
        return float(np.bincount(owner, weights=work, minlength=threads).max())
    if schedule == "dynamic":
        heap = [0.0] * threads
        heapq.heapify(heap)
        for w in sorted(work[work > 0].tolist(), reverse=True):
            heapq.heappush(heap, heapq.heappop(heap) + w)
        return float(max(heap))
    raise ValueError(f"unknown schedule {schedule!r}")


def simulate_index_time(
    work: list[np.ndarray],
    threads: int,
    schedule: str = "dynamic",
    rank: np.ndarray | None = None,
    n: int | None = None,
    barrier_frac: float = 0.02,
) -> float:
    """Modelled index-construction time (work units) for ``threads`` workers."""
    total = sum(int(r.sum()) for r in work)
    busy = [r for r in work if r.any()]
    barrier = barrier_frac * total / max(1, len(busy)) if threads > 1 else 0.0
    return sum(round_makespan(r, threads, schedule, rank, n) + barrier for r in busy)


def speedup_curve(
    work: list[np.ndarray],
    thread_counts: list[int],
    schedule: str = "dynamic",
    rank: np.ndarray | None = None,
    n: int | None = None,
    barrier_frac: float = 0.02,
) -> dict[int, float]:
    """``{t: speedup}`` with speedup(1) ≡ 1 (the paper's definition)."""
    t1 = simulate_index_time(work, 1, schedule, rank, n, barrier_frac)
    return {
        t: t1 / simulate_index_time(work, t, schedule, rank, n, barrier_frac)
        for t in thread_counts
    }


def simulate_query_speedup(
    costs: np.ndarray, thread_counts: list[int], barrier_frac: float = 0.001
) -> dict[int, float]:
    """Query-workload scaling (Fig 9): queries are independent tasks, cost =
    scanned label entries; dynamic dispatch, one final barrier."""
    total = float(costs.sum())
    out = {}
    for t in thread_counts:
        if t <= 1:
            out[t] = 1.0
            continue
        heap = [0.0] * t
        heapq.heapify(heap)
        for w in np.sort(costs)[::-1]:
            heapq.heappush(heap, heapq.heappop(heap) + float(w))
        out[t] = total / (max(heap) + barrier_frac * total)
    return out
