"""Exp 3 (Fig 7): average SPC query time.

HP-SPC_s and PSPC share the identical per-query label scan (the paper finds
them indistinguishable, ~100 µs); PSPC⁺ parallelizes the *workload* (each
query independent → divide and conquer). Three numbers per dataset:

* ``us_seq`` — measured per-query latency of the sequential scan;
* ``us_20t_model`` — the 20-thread dynamic-dispatch model (consistent with
  the Exp 4/9 thread methodology);
* ``us_spark_batch`` — measured amortized per-query cost of the Spark batch
  evaluation (real parallel path: the labels collect and broadcast plus one
  ``mapInPandas`` job, whose fixed cost is included).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.landmark import build_landmarks
from repro.core.pspc_local import build_pspc_local
from repro.core.query import query_batch_spark, query_many, random_pairs
from repro.experiments.common import (
    DEFAULT_DELTA,
    DEFAULT_LANDMARKS,
    DEFAULT_SCALE,
    emit,
    load_datasets,
    order_for,
    timed,
)
from repro.sim.threads import simulate_query_speedup


def run(
    spark: SparkSession,
    codes: list[str] | None = None,
    scale: float = DEFAULT_SCALE,
    n_queries: int = 10_000,
    n_landmarks: int = DEFAULT_LANDMARKS,
    delta: int = DEFAULT_DELTA,
    with_spark: bool = True,
    save: bool = True,
) -> pd.DataFrame:
    rows = []
    for code, g in load_datasets(codes, scale).items():
        order = order_for(g, "hybrid", delta)
        lm = build_landmarks(g, n_landmarks)
        index, _ = build_pspc_local(g, order, landmarks=lm)
        pairs = random_pairs(g.n, n_queries, seed=7)
        with timed() as t:
            res = query_many(index, pairs)
        us_seq = t() / n_queries * 1e6
        # Per-query cost = scanned entries (min of the two label lengths).
        lens = np.array([len(m) for m in index.maps])
        costs = np.minimum(lens[pairs[:, 0]], lens[pairs[:, 1]])
        sp20 = simulate_query_speedup(costs.astype(np.float64), [20])[20]
        us_spark = float("nan")
        if with_spark:
            labels_df = index.to_spark(spark)
            qdf = spark.createDataFrame(
                pd.DataFrame({"qid": np.arange(len(pairs)), "s": pairs[:, 0], "t": pairs[:, 1]})
            )
            # untimed: the first batch query of a session starts the Python workers
            query_batch_spark(spark, labels_df, qdf).count()
            with timed() as t:
                out = query_batch_spark(spark, labels_df, qdf)
                n_res = out.count()
            us_spark = t() / n_queries * 1e6
            assert n_res == n_queries  # one answer row per query
        rows.append(
            {
                "dataset": code,
                "queries": n_queries,
                "us_seq": round(us_seq, 1),
                "us_20t_model": round(us_seq / sp20, 1),
                "query_speedup_20t": round(sp20, 1),
                "us_spark_batch": round(us_spark, 1),
                "checksum_dist": int(res["dist"].where(res["dist"] < 10**9, 0).sum()),
            }
        )
    return emit(pd.DataFrame(rows), "exp3_query_time", save)
