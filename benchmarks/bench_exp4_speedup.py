"""Exp 4 (Figs 8-9): index/query speedup vs threads on FB, GO, GW, WI."""
from repro.experiments import exp4_speedup


def test_bench_exp4_speedup(spark, benchmark):
    df = benchmark.pedantic(
        lambda: exp4_speedup.run(spark, scale=0.5), rounds=1, iterations=1
    )
    assert set(df["dataset"]) == {"FB", "GO", "GW", "WI"}
