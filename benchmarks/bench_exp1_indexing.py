"""Exp 1 (Fig 5): indexing time HP-SPC_s vs PSPC vs PSPC+ on all 10 datasets,
plus the larger ``SCALE_ROWS`` where the PSPC+ executor gate matters."""
from benchmarks.common_bench import BENCH_SCALE
from repro.experiments import exp1_indexing_time


def test_bench_exp1_indexing_time(spark, benchmark):
    df = benchmark.pedantic(
        lambda: exp1_indexing_time.run(spark, scale=BENCH_SCALE, scale_rows=exp1_indexing_time.SCALE_ROWS),
        rounds=1,
        iterations=1,
    )
    assert len(df) == 10 + len(exp1_indexing_time.SCALE_ROWS)
