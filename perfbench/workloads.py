"""The benchmark's workloads and the operations of one timed round.

Plain data, importable without the program, so ``run.py`` can validate its
arguments before it looks for the program's sources.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    code: str  # dataset registry code; the registry fixes the graph's seed
    scale: float
    landmarks: int
    py_queries: int  # query_single calls per round
    build_reps: int  # samples of each driver-side builder per window
    batch_reps: int  # query_batch_spark calls per round, back to back
    probe: bool = False  # run the exactness probe


#: pairs per query_batch_spark call, on every workload
BATCH_PAIRS = 20_000

# Two workloads: FB-lite at 0.4 (few rounds, many candidates each) and a
# small RD-lite grid (many rounds, few labels each). Every run builds the
# index with PSPC⁺ once (14–18 s on 4 vCPUs) after about 20 s of set-up;
# a third workload, or RD-lite at 0.25 (56–75 s per PSPC⁺ build), would
# push a measurement that repeats each workload 22 times past an hour.
# Driver-side operations that take µs or ms run many times per window.
# `road`'s batch query takes about 2 s, so two are timed back to back;
# `social`'s takes about 6 s.
WORKLOADS = {
    "social": Workload("FB", 0.4, 100, py_queries=60_000, build_reps=2, batch_reps=1),
    "road": Workload("RD", 0.03, 0, py_queries=300_000, build_reps=400, batch_reps=2, probe=True),
}

#: One round of timed operations. A ``window`` is the driver-side steps
#: ``pspc, query, hpspc, query``, each between two timings of the reference
#: routine (``ref``). The three windows sit before, between and after the
#: Spark operations, so the driver-side samples spread over the whole round.
#: Every round is the same list, so ``failed / attempted`` is the same in
#: every run. Queries run on the latest ``build_pspc_local`` index, so the
#: round starts with a window.
WINDOW = ["ref", "pspc", "ref", "query", "ref", "hpspc", "ref", "query", "ref"]
ROUND = [*WINDOW, "spark_build", *WINDOW, "spark_batch", *WINDOW]
