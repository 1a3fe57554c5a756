"""Benchmark of the three ESPC index builders and both SPC query paths.

Run from the root of a checkout:

    python3 perfbench/run.py --workload social --seed 1 --seconds 20 --trace 0

One run starts its own SparkSession, generates the workload's graph, warms
the JVM on the code paths it times (set-up), then repeats whole rounds of
timed operations until ``--seconds`` have passed. Every output is checked
against computations made here (``checks.py``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. See README.md for the workloads and metrics.
"""
from __future__ import annotations

import time

T_IMPORT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

from workloads import WORKLOADS  # noqa: E402  (this script's directory is on sys.path)


def seconds_since_process_start() -> float:
    """Time since this process started, read from /proc; falls back to the
    time since this module began importing."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return time.perf_counter() - T_IMPORT


#: interpreter start-up before this module ran (the /proc clock ticks in
#: 10 ms steps, so it is read once and the rest is timed with perf_counter)
PRE_IMPORT_S = max(0.0, seconds_since_process_start() - (time.perf_counter() - T_IMPORT))


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    run_dir = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    record = bench.run(
        args.workload, args.seed, args.seconds, bool(args.trace), run_dir,
        since_start=lambda: PRE_IMPORT_S + time.perf_counter() - T_IMPORT,
    )
    for problem in record["problems"][:20]:
        print(f"perfbench: MISMATCH {problem}", file=sys.stderr)
    (run_dir / "result.json").write_text(json.dumps({**record, "args": vars(args)}, indent=1))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
