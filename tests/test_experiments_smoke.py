"""End-to-end smoke of every experiment table at tiny scale: the harness must
produce the paper's row/column shape and respect its own invariants. The
heavy Spark-build experiments run on one small dataset each."""
import pandas as pd
import pytest

from repro.experiments import (
    exp1_indexing_time,
    exp2_index_size,
    exp3_query_time,
    exp4_speedup,
    exp5_ablation,
    exp6_delta,
    exp7_landmarks,
    exp8_breakdown,
    table3_datasets,
)

TINY = 0.12  # ~100–200-vertex datasets: fast but non-degenerate


def test_table3(spark):
    df = table3_datasets.run(spark, scale=TINY, save=False)
    assert len(df) == 10
    assert (df["V_lite"] > 0).all()
    assert {"V_paper", "E_paper", "davg_lite"} <= set(df.columns)


def test_exp1_smoke(spark):
    df = exp1_indexing_time.run(
        spark, codes=["GW"], scale=TINY, n_landmarks=10, save=False, scale_rows=[("RD", TINY)]
    )
    assert list(df["dataset"]) == ["GW", "RD"]
    assert list(df["builds"]) == [exp1_indexing_time.REPS, 1]  # scale rows are built once
    assert (df[["HP-SPC_s_ms", "PSPC_ms", "PSPC+_ms", "PSPC+_spark_ms"]] > 0).all().all()


def test_exp2_smoke(spark):
    df = exp2_index_size.run(
        spark, codes=["YT", "GW"], scale=TINY, n_landmarks=10, with_spark=False, save=False
    )
    assert (df["entries_PSPC"] == df["entries_HP-SPC_s"]).all()
    assert (df["entries_PSPC+"] == df["entries_PSPC"]).all()
    assert (df["entries_reduced"] <= df["entries_PSPC"]).all()


def test_exp3_smoke(spark):
    df = exp3_query_time.run(
        spark, codes=["FB"], scale=TINY, n_queries=500, n_landmarks=10, with_spark=True, save=False
    )
    assert (df["us_seq"] > 0).all()
    assert (df["query_speedup_20t"] > 1).all()
    assert (df["us_20t_model"] < df["us_seq"]).all()


def test_exp4_smoke():
    df = exp4_speedup.run(codes=["FB", "GW"], scale=TINY, n_landmarks=10, n_queries=500, save=False)
    assert set(df["threads"]) == {1, 2, 4, 8, 16, 20}
    base = df[df.threads == 1]
    assert (base["index_speedup"] == 1.0).all()
    for code in ("FB", "GW"):
        sub = df[df.dataset == code].sort_values("threads")
        assert sub["index_speedup"].is_monotonic_increasing


def test_exp5_smoke():
    df = exp5_ablation.run(codes=["GW"], scale=TINY, n_landmarks=10, save=False)
    assert (df["sched_dynamic_20t"] <= df["sched_static_20t"]).all()
    ms = ["LL_ms", "NLL_ms", "order_degree_ms", "order_treedec_ms", "order_hybrid_ms"]
    assert (df[ms] > 0).all().all()


def test_exp6_smoke():
    df = exp6_delta.run(codes=["RD"], scale=TINY, deltas=[0, 5, 20], n_landmarks=10, n_queries=200, save=False)
    assert len(df) == 3
    assert (df["entries"] > 0).all()


def test_exp7_smoke():
    df = exp7_landmarks.run(codes=["GW"], scale=TINY, landmark_counts=[0, 10, 50], save=False)
    assert len(df) == 3
    assert (df["index_ms"] > 0).all()
    no_lm = df[df.landmarks == 0].iloc[0]
    assert no_lm["pruned_by_landmark"] == 0
    # Landmark pruning takes over work from the query path, never adds labels.
    assert df["entries"].nunique() == 1
    # Elimination does not depend on the landmarks; every candidate is pruned or emitted.
    assert df["eliminated"].nunique() == df["candidates"].nunique() == 1
    emitted = df["candidates"] - df["pruned_by_landmark"] - df["pruned_by_query"]
    assert emitted.nunique() == 1


def test_exp8_smoke(spark):
    df = exp8_breakdown.run(spark, codes=["YT"], scale=TINY, n_landmarks=10, save=False)
    assert (df["LC_frac"] > 0.5).all()  # label construction dominates
    assert (df[["LL_ms", "LC_ms"]] > 0).all().all()
    assert (df["rounds"] >= 1).all()
    # forced onto Spark: every round run, the empty last one too
    assert (df["spark_rounds"] == df["rounds"] + 1).all() and (df["driver_rounds"] == 0).all()


def test_results_persisted(tmp_path, monkeypatch, spark):
    """save=True writes a CSV the EXPERIMENTS.md tables can cite."""
    from repro.experiments import common

    monkeypatch.setattr(common, "RESULTS_DIR", str(tmp_path))
    df = table3_datasets.run(spark, scale=TINY, save=True)
    out = tmp_path / "table3_datasets.csv"
    assert out.exists()
    assert len(pd.read_csv(out)) == len(df)
