"""Spans around calls into the program's layers, and Spark counts per span.

A span is ``(id, name, parent, start, end)`` in seconds of
``time.perf_counter``. Spans stay in memory and are written as JSON lines
when the run ends. With tracing off, :meth:`Tracer.span` still measures the
duration the benchmark reports, but keeps no record and sets no Spark job
group.

With tracing on, every span marked ``spark=True`` runs its Spark jobs under
a job group of its own (``span-<id>``). Jobs, stage ids, tasks and shuffle
bytes per group are read back from the Spark event log after the session
stops, so they are complete however many stages the run launches (the live
status tracker keeps only the most recent 1,000).
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.sc = None  # the SparkContext, once the session has started
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, spark: bool = False):
        parent = self._stack[-1] if self._stack else None
        sp = Span(len(self.spans), name, parent, 0.0)
        if self.enabled:
            self.spans.append(sp)
            self._stack.append(sp.id)
            if spark:
                self.sc.setJobGroup(f"span-{sp.id}", name)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            if self.enabled:
                self._stack.pop()
                if spark:
                    self.sc.setLocalProperty("spark.jobGroup.id", None)

    def write(self, path: Path) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent, "start": s.start, "end": s.end}))
                f.write("\n")


@dataclass
class SparkCounts:
    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    shuffle_read_bytes: int = 0
    shuffle_write_bytes: int = 0


def spark_counts_by_group(event_log: Path) -> dict[str, SparkCounts]:
    """Per job group: jobs, distinct stage ids (run or skipped), tasks run,
    and shuffle bytes read and written, from one Spark event log file."""
    jobs: dict[str, int] = defaultdict(int)
    stage_ids: dict[str, set[int]] = defaultdict(set)
    stage_group: dict[int, str] = {}
    out: dict[str, SparkCounts] = defaultdict(SparkCounts)
    with open(event_log) as f:
        for line in f:
            ev = json.loads(line)
            kind = ev["Event"]
            if kind == "SparkListenerJobStart":
                group = (ev.get("Properties") or {}).get("spark.jobGroup.id")
                if group is None:
                    continue
                jobs[group] += 1
                stage_ids[group].update(ev["Stage IDs"])
            elif kind == "SparkListenerStageSubmitted":
                group = (ev.get("Properties") or {}).get("spark.jobGroup.id")
                if group is not None:
                    stage_group[ev["Stage Info"]["Stage ID"]] = group
            elif kind == "SparkListenerTaskEnd":
                group = stage_group.get(ev["Stage ID"])
                if group is None:
                    continue
                c = out[group]
                c.tasks += 1
                m = ev.get("Task Metrics") or {}
                rd = m.get("Shuffle Read Metrics") or {}
                c.shuffle_read_bytes += rd.get("Remote Bytes Read", 0) + rd.get("Local Bytes Read", 0)
                c.shuffle_write_bytes += (m.get("Shuffle Write Metrics") or {}).get("Shuffle Bytes Written", 0)
    for group, n in jobs.items():
        out[group].jobs = n
        out[group].stages = len(stage_ids[group])
    return dict(out)
