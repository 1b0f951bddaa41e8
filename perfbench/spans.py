"""Tracing for the traced run: spans kept in memory, Spark counters read
from outside the program (status tracker, event log, streaming listener).

A span has a name, start and end (epoch seconds), a parent span id and a
query id shared by the spans of one query. Spark stages are read from the
event log after the session stops and attached as children of the
action span whose job group ran them.
"""
from __future__ import annotations

import itertools
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from pyspark.sql.streaming import StreamingQueryListener


@dataclass
class Span:
    id: int
    name: str
    query: str
    parent: int | None
    start: float
    end: float = 0.0
    job_group: str | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, query: str, job_group: str | None = None):
        parent = self._stack[-1].id if self._stack else None
        s = Span(next(self._ids), name, query, parent, time.time(), job_group=job_group)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.time()
            self._stack.pop()
            self.spans.append(s)

    def add_stage_spans(self, stages: dict[int, dict]) -> None:
        """Attach executed stages as children of the span of their job group."""
        by_group = {s.job_group: s for s in self.spans if s.job_group}
        for sid, st in sorted(stages.items()):
            parent = by_group.get(st.get("group"))
            if parent is None or "start" not in st:
                continue
            self.spans.append(
                Span(next(self._ids), f"spark.stage.{sid}", parent.query, parent.id,
                     st["start"], st["end"])
            )

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans], indent=0))


def status_counts(sc, group: str) -> dict[str, int]:
    """Jobs, executed stages, tasks and failed tasks of one job group."""
    st = sc.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    stage_ids = {s for j in jobs if (info := st.getJobInfo(j)) for s in info.stageIds}
    infos = [i for s in stage_ids if (i := st.getStageInfo(s)) is not None]
    ran = [i for i in infos if i.numCompletedTasks + i.numFailedTasks > 0]
    return {
        "jobs": len(jobs),
        "stages": len(ran),
        "tasks": sum(i.numCompletedTasks + i.numFailedTasks for i in ran),
        "failed_tasks": sum(i.numFailedTasks for i in ran),
    }


def read_event_log(log_dir: Path) -> dict[int, dict]:
    """Per stage: job group, submission/completion time, shuffle bytes
    written, shuffle records read and executor run time (seconds)."""
    stages: dict[int, dict] = {}
    for f in sorted(log_dir.iterdir()):
        with open(f) as fh:
            for line in fh:
                e = json.loads(line)
                kind = e["Event"]
                if kind == "SparkListenerJobStart":
                    group = (e.get("Properties") or {}).get("spark.jobGroup.id")
                    for sid in e["Stage IDs"]:
                        stages.setdefault(sid, _stage())["group"] = group
                elif kind == "SparkListenerTaskEnd":
                    m = e.get("Task Metrics") or {}
                    st = stages.setdefault(e["Stage ID"], _stage())
                    st["executor_run_s"] += m.get("Executor Run Time", 0) / 1000.0
                    st["shuffle_write_bytes"] += m.get("Shuffle Write Metrics", {}).get("Shuffle Bytes Written", 0)
                    st["shuffle_read_records"] += m.get("Shuffle Read Metrics", {}).get("Total Records Read", 0)
                elif kind == "SparkListenerStageCompleted":
                    info = e["Stage Info"]
                    st = stages.setdefault(info["Stage ID"], _stage())
                    if "Submission Time" in info and "Completion Time" in info:
                        st["start"] = info["Submission Time"] / 1000.0
                        st["end"] = info["Completion Time"] / 1000.0
    return stages


def _stage() -> dict:
    return {"group": None, "executor_run_s": 0.0, "shuffle_write_bytes": 0, "shuffle_read_records": 0}


def group_totals(stages: dict[int, dict], group: str) -> dict[str, float]:
    mine = [s for s in stages.values() if s["group"] == group]
    return {k: sum(s[k] for s in mine) for k in ("executor_run_s", "shuffle_write_bytes", "shuffle_read_records")}


class ProgressListener(StreamingQueryListener):
    """Collects every streaming query's progress events."""

    def __init__(self) -> None:
        self.started = 0
        self.progress: list = []

    def onQueryStarted(self, event) -> None:
        self.started += 1

    def onQueryProgress(self, event) -> None:
        self.progress.append(event.progress)

    def onQueryTerminated(self, event) -> None:
        pass
