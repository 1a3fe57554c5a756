"""Shared harness for the Exp 1–8 / Table III reproductions.

Every experiment module exposes ``run(...) -> pandas.DataFrame`` printing the
same rows the paper reports and (optionally) persisting them under
``results/`` so EXPERIMENTS.md can cite a concrete file. Defaults (scale,
query counts, landmark budget δ=5, 100 landmarks) follow the paper's
settings, shrunk to the single-node sizes of DESIGN.md §3.
"""
from __future__ import annotations

import os
import statistics
import time
from collections.abc import Callable
from contextlib import contextmanager
from typing import TypeVar

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.pspc_spark import build_pspc_spark
from repro.graph.gframe import Graph
from repro.graphgen.datasets import TABLE3_CODES, load
from repro.ordering.degree import degree_order
from repro.ordering.hybrid import hybrid_order
from repro.ordering.treedec import elimination_order

#: default dataset scale for benchmarks (DESIGN.md §4 sizes × 0.5).
DEFAULT_SCALE = 0.5
#: paper defaults: 100 landmarks, δ = 5.
DEFAULT_LANDMARKS = 100
DEFAULT_DELTA = 5
#: thread counts of the Exp 4 sweep (20 = the paper's machine).
THREAD_COUNTS = [1, 2, 4, 8, 16, 20]

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "..", "results")

R = TypeVar("R")


@contextmanager
def timed():
    """``with timed() as t: ...; t()`` → elapsed seconds."""
    t0 = time.perf_counter()
    yield lambda: time.perf_counter() - t0


def median_ms(reps: int, fn: Callable[[], R]) -> tuple[float, R]:
    """Run ``fn`` ``reps`` times; the median wall time in ms (0.1 ms steps)
    and the last call's result."""
    times = []
    for _ in range(reps):
        with timed() as t:
            out = fn()
        times.append(t())
    return round(1000 * statistics.median(times), 1), out


def order_for(g: Graph, scheme: str, delta: int = DEFAULT_DELTA) -> np.ndarray:
    """Vertex order by scheme name (the Exp 5(c) axis)."""
    if scheme == "degree":
        return degree_order(g)
    if scheme == "hybrid":
        return hybrid_order(g, delta)
    if scheme == "treedec":
        return elimination_order(g, max_fill_degree=64)
    raise ValueError(f"unknown ordering scheme {scheme!r}")


def warm_up_spark_build(spark: SparkSession, n_landmarks: int) -> None:
    """One untimed PSPC⁺ build on a 20-vertex star, its rounds forced onto
    Spark, so that the first timed build of a session does not pay for JVM
    class loading and compilation."""
    star = Graph.from_edges(np.array([[0, v] for v in range(1, 20)]), n=20, name="star20")
    build_pspc_spark(spark, star, degree_order(star), n_landmarks=n_landmarks, driver_pulls=0)


def load_datasets(codes: list[str] | None = None, scale: float = DEFAULT_SCALE) -> dict[str, Graph]:
    return {c: load(c, scale) for c in (codes or TABLE3_CODES)}


def emit(df: pd.DataFrame, name: str, save: bool = True) -> pd.DataFrame:
    """Print the table (the deliverable) and persist it to results/."""
    print(f"\n== {name} ==")
    print(df.to_string(index=False))
    if save:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        df.to_csv(os.path.join(RESULTS_DIR, f"{name}.csv"), index=False)
    return df
