"""One benchmark run: session, workload, timed rounds, checks and metrics.

Imported by ``run.py`` once the program's sources are on ``sys.path``.
"""
from __future__ import annotations

import math
import os
import random
import resource
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pandas as pd
from pyspark import SparkContext
from pyspark.sql import SparkSession

from checks import ExactSPC, adjacency, answer_ok, bfs_counts, check_answers, check_batch, check_espc, check_same_index, check_totals
from repro.core.hpspc import build_hpspc
from repro.core.landmark import build_landmarks
from repro.core.pspc_local import build_pspc_local
from repro.core.pspc_spark import build_pspc_spark
from repro.core.query import query_batch_spark, query_single
from repro.graph.gframe import Graph
from repro.graphgen.datasets import load
from repro.ordering.hybrid import hybrid_order
from tracing import Tracer, spark_counts_by_group
from workloads import BATCH_PAIRS, ROUND, WORKLOADS, Workload

#: Spark session: fixed cores and driver memory; the other settings are
#: those of ``jobs/_runner.py`` plus plumbing that keeps files in the run's
#: output directory.
CORES = 4
DRIVER_MEMORY = "2g"
#: hybrid-order degree threshold (the paper's default δ)
DELTA = 5
#: the exactness probe: a plain grid, and a fixed seed for its pairs so the
#: probe's failures do not depend on ``--seed``
PROBE_SIDE = 40
PROBE_SEED = 2023

#: The reference routine: two counting BFS (``checks.bfs_counts``) over a
#: fixed random graph of 400 vertices and 1,600 edges. It is dict- and
#: list-bound pure Python, like the driver-side builders and queries, and
#: does not touch the program. Driver-side timings are scaled by
#: ``REF_NOMINAL_S / (the reference's time next to them)``, i.e. reported at
#: the speed where the reference takes ``REF_NOMINAL_S``. That takes out
#: most of the host's drift, which moves every pure-Python time by up to 2x
#: over 10-30 s.
def _reference_graph(n: int = 400, m: int = 1600) -> list[list[int]]:
    rng = random.Random(0)
    adj: list[list[int]] = [[] for _ in range(n)]
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        adj[u].append(v)
        adj[v].append(u)
    return adj


REF_ADJ = _reference_graph()
#: the reference's median time on a quiet 4-vCPU Xeon VM (family 6, model 207)
REF_NOMINAL_S = 0.6e-3
#: reference repetitions per measurement (their median is taken)
REF_REPS = 5
#: within a driver-side step, the reference is timed again after any build
#: or 1,000-query chunk that ends this long after the last timing
REF_INTERVAL_S = 0.05
QUERY_CHUNK = 1000


def reference_seconds() -> float:
    clock = time.perf_counter
    times = []
    for _ in range(REF_REPS):
        t0 = clock()
        bfs_counts(REF_ADJ, 0)
        bfs_counts(REF_ADJ, 1)
        times.append(clock() - t0)
    return statistics.median(times)


def percentile(xs: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def grid_graph(side: int) -> Graph:
    vid = np.arange(side * side, dtype=np.int64).reshape(side, side)
    edges = np.concatenate([
        np.stack([vid[:, :-1].ravel(), vid[:, 1:].ravel()], axis=1),
        np.stack([vid[:-1, :].ravel(), vid[1:, :].ravel()], axis=1),
    ])
    return Graph.from_edges(edges, n=side * side, name=f"grid{side}")


def queries_pdf(pairs: np.ndarray) -> pd.DataFrame:
    return pd.DataFrame({"qid": np.arange(len(pairs)), "s": pairs[:, 0], "t": pairs[:, 1]})


def start_session(run_dir: Path, trace: bool) -> SparkSession:
    local = run_dir / "spark-local"
    tmp = run_dir / "tmp"
    for d in (local, tmp):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    os.environ["TMPDIR"] = str(tmp)
    b = (
        SparkSession.builder.master(f"local[{CORES}]")
        .appName("perfbench")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.local.dir", str(local))
        .config("spark.sql.warehouse.dir", str(run_dir / "warehouse"))
        .config("spark.driver.extraJavaOptions", f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
    )
    if trace:
        log_dir = run_dir / "eventlog"
        log_dir.mkdir(exist_ok=True)
        b = (
            b.config("spark.eventLog.enabled", "true")
            .config("spark.eventLog.dir", log_dir.as_uri())
            .config("spark.eventLog.compress", "false")
            .config("spark.eventLog.rolling.enabled", "false")
        )
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark: SparkSession) -> None:
    """Stop the session and the JVM it runs in, and wait for the JVM."""
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM line in /proc/{pid}/status")


class Bench:
    """State of one run: the session, the graph, samples and check results."""

    def __init__(self, spark: SparkSession, w: Workload, seed: int, tracer: Tracer):
        self.spark, self.w, self.tracer = spark, w, tracer
        with tracer.span("repro.graphgen.datasets.load") as sp:
            self.g = load(w.code, w.scale)
        self.load_s = sp.seconds
        rng = np.random.default_rng(seed)
        self.py_pairs = rng.integers(0, self.g.n, (w.py_queries, 2))
        self.batch_pairs = rng.integers(0, self.g.n, (BATCH_PAIRS, 2))
        self.batch_pdf = queries_pdf(self.batch_pairs)
        self.samples: dict[str, list[float]] = defaultdict(list)  # end-to-end, wall time
        self.scaled: dict[str, list[float]] = defaultdict(list)  # driver-side, at reference speed
        self.pending: dict[str, list[float]] = defaultdict(list)  # driver-side, since the last ref
        self.last_ref = 0.0
        self.last_ref_at = 0.0
        self.query_slices: list[int] = []  # queries per op_query call, in order
        self.layer: dict[str, list[float]] = defaultdict(list)  # per-layer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.ref_index = None  # the first index built; every other must equal it
        self.ref_tuples = None
        self.index = None  # the latest build_pspc_local index: what queries run on
        self.local_stats = None
        self.spark_spans: dict[str, list[int]] = defaultdict(list)
        self.query_step = 0

    # ---- set-up ----------------------------------------------------------
    def warm_up(self) -> None:
        """A Spark build with the workload's landmark setting and a batch
        query, on a 20-vertex star, so the timed operations do not pay for
        class loading and first compilation. One round runs every operator
        of a build; the star's second round would only find nothing new."""
        g = Graph.from_edges(np.array([[0, v] for v in range(1, 20)]), n=20, name="star20")
        order = hybrid_order(g, DELTA)
        index, _ = build_pspc_spark(self.spark, g, order, n_landmarks=self.w.landmarks, max_rounds=1)
        queries = self.spark.createDataFrame(queries_pdf(np.random.default_rng(0).integers(0, g.n, (2000, 2))))
        query_batch_spark(self.spark, index.to_spark(self.spark), queries).toPandas()

    def prepare_checks(self) -> None:
        """Exact answers from every source, and the exactness probe."""
        self.adj = adjacency(self.g.n, self.g.edges)
        self.exact = ExactSPC(self.adj)
        for s in range(self.g.n):
            self.exact(s, s)
        if self.w.probe:
            g = grid_graph(PROBE_SIDE)
            self.probe_index, _ = build_pspc_local(g, hybrid_order(g, DELTA))
            pairs = np.random.default_rng(PROBE_SEED).integers(0, g.n, (2000, 2)).tolist()
            pairs.append([0, g.n - 1])  # corner to corner: C(78, 39) paths
            self.probe = []
            for s, t in pairs:
                dx = abs(s % PROBE_SIDE - t % PROBE_SIDE)
                dy = abs(s // PROBE_SIDE - t // PROBE_SIDE)
                self.probe.append((s, t, (dx + dy, math.comb(dx + dy, dx))))

    # ---- timed operations ------------------------------------------------
    def run_round(self) -> None:
        for step in ROUND:
            if step in ("hpspc", "pspc"):
                for _ in range(self.w.build_reps):
                    getattr(self, f"op_{step}")()
                    self.ref_if_due()
            else:
                for _ in range(self.w.batch_reps if step == "spark_batch" else 1):
                    getattr(self, f"op_{step}")()
        if self.w.probe:
            self.op_probe()

    def _order(self) -> np.ndarray:
        with self.tracer.span("repro.ordering.hybrid.hybrid_order") as sp:
            order = hybrid_order(self.g, DELTA)
        self.layer["ordering.order_s"].append(sp.seconds)
        return order

    def op_hpspc(self) -> None:
        with self.tracer.span("op.hpspc_build") as op:
            order = self._order()
            with self.tracer.span("repro.core.hpspc.build_hpspc") as sp:
                index = build_hpspc(self.g, order)
        self.pending["hpspc_build_s"].append(op.seconds)
        self.layer["hpspc.lc_s"].append(sp.seconds)
        self._check_index("build_hpspc", index)

    def op_pspc(self) -> None:
        with self.tracer.span("op.pspc_build") as op:
            order = self._order()
            lm = None
            if self.w.landmarks:
                with self.tracer.span("repro.core.landmark.build_landmarks") as sp:
                    lm = build_landmarks(self.g, self.w.landmarks)
                self.layer["landmark.ll_s"].append(sp.seconds)
            with self.tracer.span("repro.core.pspc_local.build_pspc_local") as sp:
                index, stats = build_pspc_local(self.g, order, landmarks=lm)
        self.pending["pspc_build_s"].append(op.seconds)
        self.layer["pspc_local.lc_s"].append(sp.seconds)
        emitted = stats.candidates_total - stats.pruned_by_landmark - stats.pruned_by_query
        self.layer["pspc_local.rounds"].append(stats.rounds)
        self.layer["pspc_local.candidates"].append(stats.candidates_total)
        self.layer["pspc_local.pruned_landmark"].append(stats.pruned_by_landmark)
        self.layer["pspc_local.pruned_query"].append(stats.pruned_by_query)
        self.layer["pspc_local.yield"].append(emitted / stats.candidates_total if stats.candidates_total else 0.0)
        self._check_index("build_pspc_local", index)
        self.index, self.local_stats = index, stats

    def op_spark_build(self) -> None:
        with self.tracer.span("op.spark_build") as op:
            order = self._order()
            with self.tracer.span("repro.core.pspc_spark.build_pspc_spark", spark=True) as sp:
                index, stats = build_pspc_spark(self.spark, self.g, order, n_landmarks=self.w.landmarks)
        self.samples["spark_build_s"].append(op.seconds)
        self.spark_spans["pspc_spark"].append(sp.id)
        n_rounds = len(stats.round_candidates)  # includes the final, empty round
        self.layer["pspc_spark.ll_s"].append(stats.t_landmarks)
        self.layer["pspc_spark.lc_s"].append(stats.t_construction)
        self.layer["pspc_spark.collect_s"].append(sp.seconds - stats.t_landmarks - stats.t_construction)
        self.layer["pspc_spark.rounds"].append(stats.rounds)
        self.layer["pspc_spark.rounds_run"].append(n_rounds)
        self.layer["pspc_spark.s_per_round"].append(stats.t_construction / n_rounds)
        self.layer["pspc_spark.emitted"].append(sum(stats.round_candidates))
        self._check_index("build_pspc_spark", index)
        self.problems += check_totals(self.g.n, index.n_entries, self.local_stats, stats)

    def op_query(self) -> None:
        """The next slice of the python query pairs, one caller, closed loop,
        each call timed alone."""
        steps = ROUND.count("query")
        k = self.query_step % steps
        self.query_step += 1
        q = len(self.py_pairs)
        pairs = self.py_pairs[k * q // steps : (k + 1) * q // steps]
        index = self.index
        dists, counts = [], []
        for i in range(0, len(pairs), QUERY_CHUNK):
            lat = []
            if self.tracer.enabled:
                for s, t in pairs[i : i + QUERY_CHUNK].tolist():
                    with self.tracer.span("repro.core.query.query_single") as sp:
                        d, c = query_single(index, s, t)
                    lat.append(sp.seconds)
                    dists.append(d)
                    counts.append(c)
            else:
                clock = time.perf_counter
                for s, t in pairs[i : i + QUERY_CHUNK].tolist():
                    t0 = clock()
                    d, c = query_single(index, s, t)
                    lat.append(clock() - t0)
                    dists.append(d)
                    counts.append(c)
            self.pending["query_s"] += lat
            self.ref_if_due()
        self.query_slices.append(len(pairs))
        self.attempted += len(pairs)
        self.problems += check_answers(self.exact, pairs, dists, counts)
        self.layer["query.scan_entries"] += [min(len(index.maps[s]), len(index.maps[t])) for s, t in pairs.tolist()]

    def op_ref(self) -> None:
        """Time the reference routine, and scale the driver-side samples
        taken since the previous ``ref`` by the mean of the two."""
        ref = reference_seconds()
        self.layer["ref_s"].append(ref)
        if self.pending:
            factor = REF_NOMINAL_S / ((self.last_ref + ref) / 2)
            for key, wall in self.pending.items():
                self.samples[key] += wall
                self.scaled[key] += [x * factor for x in wall]
            self.pending.clear()
        self.last_ref = ref
        self.last_ref_at = time.perf_counter()

    def ref_if_due(self) -> None:
        if time.perf_counter() - self.last_ref_at >= REF_INTERVAL_S:
            self.op_ref()

    def op_spark_batch(self) -> None:
        with self.tracer.span("op.spark_batch") as op:
            with self.tracer.span("repro.core.labels.LabelIndex.to_spark", spark=True) as sp:
                labels = self.index.to_spark(self.spark)
            self.layer["labels.to_spark_s"].append(sp.seconds)
            with self.tracer.span("repro.core.query.query_batch_spark", spark=True) as sp:
                queries = self.spark.createDataFrame(self.batch_pdf)
                answer = query_batch_spark(self.spark, labels, queries).toPandas()
            self.layer["query.spark_batch_s"].append(sp.seconds)
            self.spark_spans["query"].append(sp.id)
        self.samples["spark_batch_s"].append(op.seconds)
        self.attempted += len(self.batch_pairs)
        self.problems += check_batch(self.exact, self.batch_pairs, answer)

    def op_probe(self) -> None:
        """Untimed exact-count probe. Counts are float64 in the program, so
        answers above 2^53 can be off; each such answer counts as failed."""
        for s, t, exact in self.probe:
            d, c = query_single(self.probe_index, s, t)
            self.attempted += 1
            self.failed += not answer_ok(exact, d, c)

    def _check_index(self, name: str, index) -> None:
        """Every build is one operation; its index must equal the first."""
        self.attempted += 1
        tuples = index.sorted_tuples()
        if self.ref_index is None:
            self.ref_index, self.ref_tuples = index, tuples
        else:
            self.problems += check_same_index(name, tuples, self.ref_tuples)

    def final_checks(self) -> None:
        ref = self.ref_index
        self.problems += check_espc(self.adj, ref.rank, ref.maps, self.exact)

    # ---- metrics ---------------------------------------------------------
    def end_to_end(self, setup_s: float, scaled: bool = True) -> dict[str, tuple[float, str]]:
        """Medians of the run's samples; the query tail is the median over
        the run's query slices of each slice's 99th percentile, so a burst
        of load on the host during one slice does not move it. Driver-side
        timings are at reference speed; with ``scaled=False`` they are the
        plain wall times, kept in the result file for comparison."""
        med = statistics.median
        d = self.scaled if scaled else self.samples
        s = self.samples
        lat_us = [x * 1e6 for x in d["query_s"]]
        slices = np.split(np.array(lat_us), np.cumsum(self.query_slices)[:-1])
        return {
            "setup_s": (setup_s, "s"),
            "hpspc_build_s": (med(d["hpspc_build_s"]), "s"),
            "pspc_build_s": (med(d["pspc_build_s"]), "s"),
            "spark_build_s": (med(s["spark_build_s"]), "s"),
            "index_entries": (self.ref_index.n_entries, "entries"),
            "query_p50_us": (med(lat_us), "us"),
            "query_p99_us": (med(percentile(x.tolist(), 99) for x in slices), "us"),
            "spark_query_qps": (BATCH_PAIRS / med(s["spark_batch_s"]), "queries/s"),
        }

    def per_layer(self, counts: dict, start_s: float, warmup_s: float, jvm_rss_mb: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of a traced run; ``counts`` are the Spark counts
        per job group, read from the event log."""
        L = self.layer

        def med(key: str) -> float:
            return statistics.median(L[key]) if L[key] else 0.0

        def spark_med(kind: str, field: str) -> float:
            return statistics.median(getattr(counts.get(f"span-{i}"), field, 0) for i in self.spark_spans[kind])

        m = {"graphgen.load_s": (self.load_s, "s")}
        for key, unit in [
            ("ordering.order_s", "s"),
            ("landmark.ll_s", "s"),  # 0 where the workload has no landmarks
            ("hpspc.lc_s", "s"),
            ("pspc_local.lc_s", "s"),
            ("pspc_local.rounds", "count"),
            ("pspc_local.candidates", "count"),
            ("pspc_local.pruned_landmark", "count"),
            ("pspc_local.pruned_query", "count"),
            ("pspc_local.yield", "ratio"),
            ("pspc_spark.ll_s", "s"),
            ("pspc_spark.lc_s", "s"),
            ("pspc_spark.rounds", "count"),
            ("pspc_spark.s_per_round", "s"),
        ]:
            m[key] = (med(key), unit)
        for field in ("jobs", "stages", "tasks"):
            m[f"pspc_spark.{field}"] = (spark_med("pspc_spark", field), "count")
        m["pspc_spark.stages_per_round"] = (m["pspc_spark.stages"][0] / med("pspc_spark.rounds_run"), "count")
        for field in ("shuffle_read_bytes", "shuffle_write_bytes"):
            m[f"pspc_spark.{field}"] = (spark_med("pspc_spark", field), "bytes")
        m["pspc_spark.collect_s"] = (med("pspc_spark.collect_s"), "s")
        m["pspc_spark.emitted"] = (med("pspc_spark.emitted"), "count")
        m["labels.to_spark_s"] = (med("labels.to_spark_s"), "s")
        m["query.scan_entries_mean"] = (statistics.fmean(L["query.scan_entries"]), "entries")
        m["query.spark_batch_s"] = (med("query.spark_batch_s"), "s")
        m["query.spark_stages"] = (spark_med("query", "stages"), "count")
        m["query.spark_tasks"] = (spark_med("query", "tasks"), "count")
        m["query.spark_shuffle_read_bytes"] = (spark_med("query", "shuffle_read_bytes"), "bytes")
        m["session.start_s"] = (start_s, "s")
        m["session.warmup_s"] = (warmup_s, "s")
        m["session.driver_peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        m["session.jvm_peak_rss_mb"] = (jvm_rss_mb, "MB")
        return m


def run(workload: str, seed: int, seconds: float, trace: bool, run_dir: Path, since_start) -> dict:
    """One run; returns the result record. ``since_start()`` gives the
    seconds since the process started."""
    tracer = Tracer(trace)
    with tracer.span("session.start") as sp_start:
        spark = start_session(run_dir, trace)
    tracer.sc = spark.sparkContext
    try:
        bench = Bench(spark, WORKLOADS[workload], seed, tracer)
        with tracer.span("session.warmup") as sp_warm:
            bench.warm_up()
        setup_s = since_start()

        bench.prepare_checks()
        # Whole rounds only; another round starts while one more of the
        # last round's length still ends within ``seconds``.
        t_window = time.perf_counter()
        rounds = 0
        while True:
            with tracer.span("round") as sp_round:
                bench.run_round()
            rounds += 1
            if sp_round.end - t_window + sp_round.seconds > seconds:
                break
        bench.final_checks()
        jvm_rss_mb = peak_rss_mb(SparkContext._gateway.proc.pid)
    finally:
        stop_session(spark)

    # A traced run's end-to-end figures go to its result file only, where
    # they show the tracing overhead; they are never reported.
    end_to_end = bench.end_to_end(setup_s)
    if trace:
        (log,) = [f for f in (run_dir / "eventlog").iterdir() if f.is_file()]
        metrics = bench.per_layer(spark_counts_by_group(log), sp_start.seconds, sp_warm.seconds, jvm_rss_mb)
        tracer.write(run_dir / "spans.jsonl")
    else:
        metrics = end_to_end
    return {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "rounds": rounds,
        "end_to_end": end_to_end,
        "end_to_end_wall": bench.end_to_end(setup_s, scaled=False),
        "reference_s": bench.layer["ref_s"],
        "samples": {k: v for k, v in bench.samples.items() if k != "query_s"},
        "problems": bench.problems,
    }
