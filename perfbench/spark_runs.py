"""The Spark side of a run: set-up, the timed plans, the traced extras.

Every timed query is the full user path — optimize, lower, execute and
collect every row to the driver through Arrow (``toPandas``). Timing
``count()`` instead lets Catalyst prune the aggregate, so no window value
would be computed.
"""
from __future__ import annotations

import shutil
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.aggregates import AggSpec, get_aggregate
from repro.core.factor import optimize
from repro.core.mincost import MinCostWCG, find_min_cost_wcg
from repro.core.windows import Window
from repro.engine.executor import execute_baseline, execute_wcg
from repro.engine.rollup import rollup
from repro.engine.sliced_exec import sliced_window_agg
from repro.engine.streaming import run_streaming_plan, streaming_supported
from repro.engine.streams import event_stream_pdf
from repro.engine.window_agg import finalize, partial_window_agg

from perfbench import spans as S
from perfbench.check import canonical, check_against_oracle, mismatch
from perfbench.fused import fused_baseline
from perfbench.workloads import SparkWorkload

PLANS = ("bl", "wcg", "wcg_fw", "sp")
#: One timed round. BL is the shortest plan on both workloads, about 1 s,
#: so a round runs it twice, apart: its median rests on twice the samples
#: for little more time.
ROUND = PLANS + ("bl",)
#: Windows whose operators the per-layer metrics name: the WCG-FW plans of
#: both workloads. An operator not in the workload's plan reads 0.
OP_WINDOWS = tuple(
    Window(r, s) for r, s in ((1, 1), (10, 10), (20, 20), (30, 30), (40, 40),
                              (60, 10), (120, 10), (240, 10), (480, 10))
)
SETUPS = 3  # set-ups per run; setup_s is their median
MIN_ROUNDS = 2  # timed rounds per untraced run, whatever --seconds says
SCHEMA = "tick long, ts timestamp, key long, v double"


def wname(w: Window) -> str:
    return f"w{w.r}_{w.s}"


@dataclass
class Ops:
    """Operations the benchmark requires to succeed."""

    attempted: int = 0
    failed: int = 0

    def record(self, what: str, why: str | None) -> None:
        self.attempted += 1
        if why is not None:
            self.failed += 1
            print(f"perfbench: FAILED {what}: {why}", file=sys.stderr)


@dataclass
class Execution:
    seconds: float  # whole user path
    phases: dict[str, float]
    query: str | None = None  # job group of the traced action
    counters: dict[str, float] = field(default_factory=dict)


class SparkRun:
    """One workload on one Spark session at a time."""

    def __init__(self, wl: SparkWorkload, seed: int, tmp: Path, cores: int):
        self.wl, self.seed, self.tmp, self.cores = wl, seed, tmp, cores
        self.agg: AggSpec = get_aggregate(wl.agg)
        self.windows = list(wl.windows)
        self.ops = Ops()
        self.tracer = S.Tracer()
        self.spark: SparkSession | None = None
        self.events: DataFrame | None = None
        self.events_pdf: pd.DataFrame | None = None
        self.bl_ref: pd.DataFrame | None = None
        self.setup = {"setup_s": [], "session_s": [], "generate_s": [], "source_write_s": []}
        self.event_log = tmp / "eventlog"
        self.source = tmp / "stream_source"
        # Only a plan that streaming can run needs a streaming source.
        self.streamable = streaming_supported(optimize(self.windows, self.agg, wl.eta))
        self._n = 0

    # ----- set-up -------------------------------------------------------
    def _session(self, event_log: bool) -> SparkSession:
        b = (
            SparkSession.builder.appName("perfbench")
            .config("spark.sql.shuffle.partitions", "64")
            .config("spark.sql.execution.arrow.pyspark.enabled", "true")
            .config("spark.sql.autoBroadcastJoinThreshold", -1)
            .config("spark.sql.session.timeZone", "UTC")
            .config("spark.local.dir", str(self.tmp / "local"))
            .config("spark.sql.warehouse.dir", str(self.tmp / "warehouse"))
            .config("spark.sql.streaming.checkpointLocation", str(self.tmp / "checkpoints"))
        )
        if event_log:
            self.event_log.mkdir(parents=True, exist_ok=True)
            b = (
                b.config("spark.eventLog.enabled", "true")
                .config("spark.eventLog.dir", self.event_log.as_uri())
                .config("spark.eventLog.compress", "false")
                .config("spark.eventLog.rolling.enabled", "false")
            )
        return b.getOrCreate()

    def set_up(self, event_log: bool = False) -> None:
        """Session start, input generation and persist, and the write of
        the streaming source when the workload's plan can stream; timed."""
        shutil.rmtree(self.source, ignore_errors=True)
        t0 = time.perf_counter()
        if self.spark is not None:
            self.spark.stop()
        self.spark = self._session(event_log)
        t1 = time.perf_counter()
        wl = self.wl
        self.events_pdf = event_stream_pdf(
            horizon=wl.horizon, eta=wl.eta, n_keys=wl.n_keys, seed=self.seed
        )
        self.events = self.spark.createDataFrame(self.events_pdf).persist()
        self.events.count()
        t2 = time.perf_counter()
        if self.streamable:
            self._write_source()
        t3 = time.perf_counter()
        self.setup["setup_s"].append(t3 - t0)
        self.setup["session_s"].append(t1 - t0)
        self.setup["generate_s"].append(t2 - t1)
        self.setup["source_write_s"].append(t3 - t2)

    def _write_source(self) -> None:
        """The events as a parquet streaming source, with one event past
        the horizon that moves the watermark beyond every window."""
        H = self.wl.horizon
        src = pd.concat([self.events_pdf[["tick", "key", "v"]],
                         pd.DataFrame({"tick": [H + 1000], "key": [0], "v": [0.0]})],
                        ignore_index=True)
        src.insert(1, "ts", pd.to_datetime(src["tick"], unit="s", utc=True))
        self.source.mkdir(parents=True)
        src.to_parquet(self.source / "part-0.parquet", index=False, coerce_timestamps="us")

    def _repersist_events(self) -> None:
        # sliced_window_agg persists its slice partials and never releases
        # them; a later call would then read them from the cache. Clearing
        # the cache keeps every timed query starting from the same state.
        self.spark.catalog.clearCache()
        self.events.persist()
        self.events.count()

    def stop(self) -> None:
        if self.spark is not None:
            self.spark.stop()
            self.spark = None

    @contextmanager
    def job_group(self, name: str | None):
        """Jobs started inside run in job group ``name`` (None: no group)."""
        sc = self.spark.sparkContext
        if name is not None:
            sc.setJobGroup(name, name)
        try:
            yield
        finally:
            if name is not None:
                sc.setLocalProperty("spark.jobGroup.id", None)

    # ----- one query ----------------------------------------------------
    def execute(self, plan: str, query: str | None = None) -> tuple[pd.DataFrame, Execution]:
        """Run ``plan`` through its public entry points and collect it.
        With ``query`` set (traced run) the phases are spans, and the
        action runs in its own job group named ``query``."""
        ev, W, agg, eta = self.events, self.windows, self.agg, self.wl.eta
        phases: dict[str, float] = {}
        tr = self.tracer

        def phase(name):
            if query is None:
                return nullcontext()
            return tr.span(name, query, job_group=query if name == "spark.collect" else None)

        cleanup = None
        t_start = time.perf_counter()
        with tr.span(f"query.{plan}", query) if query else nullcontext():
            m: MinCostWCG | None = None
            if plan in ("wcg", "wcg_fw"):
                t = time.perf_counter()
                with phase("core.optimize"):
                    m = find_min_cost_wcg(W, agg, eta) if plan == "wcg" else optimize(W, agg, eta)
                phases["optimize"] = time.perf_counter() - t
            t = time.perf_counter()
            with phase("engine.lower"):
                if plan == "bl":
                    df = execute_baseline(ev, W, agg)
                elif plan == "sp":
                    df = sliced_window_agg(ev, W, agg, shared=True, horizon=self.wl.horizon)
                elif plan == "ref_fused":
                    df = fused_baseline(ev, W, agg)
                else:
                    res = execute_wcg(ev, m, agg)
                    df, cleanup = res.output, res.unpersist
                    phases["persisted"] = len(res.persisted)
            phases["lower"] = time.perf_counter() - t
            t = time.perf_counter()
            with phase("spark.collect"), self.job_group(query):
                pdf = df.toPandas()
            phases["collect"] = time.perf_counter() - t
        seconds = time.perf_counter() - t_start
        if cleanup is not None:
            cleanup()
        if plan == "sp":
            self._repersist_events()
        ex = Execution(seconds, phases, query)
        if query is not None:
            ex.counters = S.status_counts(self.spark.sparkContext, query)
        return pdf, ex

    def checked(self, plan: str, query: str | None = None) -> Execution | None:
        """Execute ``plan`` and check its rows against BL's. None when the
        plan raised or its rows differ, so no failed execution is timed."""
        try:
            pdf, ex = self.execute(plan, query)
        except Exception:  # a plan that raises is a failed operation
            self.ops.record(plan, traceback.format_exc())
            return None
        if self.bl_ref is None:
            if plan != "bl":
                self.ops.record(plan, "no BL rows to compare with")
                return None
            self.bl_ref = canonical(pdf)
        why = mismatch(pdf, self.bl_ref)
        self.ops.record(plan, why)
        return ex if why is None else None

    def oracle_check(self) -> float:
        """BL's reference rows against DuckDB, once; raises AssertionError
        on a difference."""
        t0 = time.perf_counter()
        check_against_oracle(
            self.spark.createDataFrame(self.bl_ref),
            self.events_pdf, self.windows, self.agg, self.wl.horizon,
        )
        self.ops.record("BL vs DuckDB oracle", None)
        return time.perf_counter() - t0

    # ----- timed rounds -------------------------------------------------
    def rounds(self, plans, seconds: float, traced: bool, idle=None,
               min_rounds: int = MIN_ROUNDS) -> dict[str, list[Execution]]:
        """Round-robin over ``plans`` (rotating the start) until
        ``seconds`` have passed and at least ``min_rounds`` rounds ran.
        Once both hold, no further query starts, even mid-round, so a run
        overshoots ``seconds`` by at most one query. ``idle``, if given, is
        called after each query."""
        out: dict[str, list[Execution]] = {p: [] for p in plans}
        t_end = time.perf_counter() + seconds
        r = 0
        while r < min_rounds or time.perf_counter() < t_end:
            for i in range(len(plans)):
                if r >= min_rounds and time.perf_counter() >= t_end:
                    break
                p = plans[(r + i) % len(plans)]
                self._n += 1
                ex = self.checked(p, f"{p}#{self._n}" if traced else None)
                if ex is not None:
                    out[p].append(ex)
                if idle is not None:
                    idle()
            r += 1
        return out

    # ----- traced extras ------------------------------------------------
    def isolated_operators(self) -> dict[str, float]:
        """Each WCG-FW operator materialized alone, its input persisted."""
        m = optimize(self.windows, self.agg, self.wl.eta)
        n_events = self.events.count()
        outs: dict[Window, DataFrame] = {}
        rows: dict[Window, int] = {}
        metrics = {f"op.{wname(w)}.{k}": 0.0 for w in OP_WINDOWS for k in ("rows_in", "rows_out", "s")}
        for w in m.topological():
            p = m.parent[w]
            df = partial_window_agg(self.events, w, self.agg) if p is None else rollup(outs[p], w, self.agg)
            df = df.persist()
            group = f"op.{wname(w)}"
            t0 = time.perf_counter()
            with self.tracer.span(group, "operators", job_group=group), self.job_group(group):
                df.write.format("noop").mode("overwrite").save()
            metrics[f"op.{wname(w)}.s"] = time.perf_counter() - t0
            outs[w], rows[w] = df, df.count()
            metrics[f"op.{wname(w)}.rows_in"] = n_events if p is None else rows[p]
            metrics[f"op.{wname(w)}.rows_out"] = rows[w]
        t0 = time.perf_counter()
        group = "op.finalize_union"
        with self.tracer.span(group, "operators", job_group=group), self.job_group(group):
            union = None
            for w in sorted(m.exposed()):
                d = finalize(outs[w], w, self.agg)
                union = d if union is None else union.unionByName(d)
            pdf = union.toPandas()
        metrics["op.finalize_union.s"] = time.perf_counter() - t0
        self.ops.record("isolated WCG-FW operators", mismatch(pdf, self.bl_ref))
        for df in outs.values():
            df.unpersist()
        return metrics

    def streaming(self, codegen_log: Path) -> dict[str, float]:
        """The WCG-FW plan through ``run_streaming_plan``, until every sink
        drains, at one shuffle partition per core (see NOTES.md)."""
        m = optimize(self.windows, self.agg, self.wl.eta)
        names = ("queries", "batches", "state_rows", "rows_dropped_by_watermark",
                 "trigger_ms", "codegen_fallbacks", "run_s")
        out = {f"stream.{k}": 0.0 for k in names}
        if not self.streamable:
            return out
        spark, H = self.spark, self.wl.horizon
        expected = self.bl_ref[self.bl_ref["win_end"] <= H].reset_index(drop=True)
        listener = S.ProgressListener()
        spark.streams.addListener(listener)
        spark.conf.set("spark.sql.shuffle.partitions", str(self.cores))
        n_log = _count_fallbacks(codegen_log)
        try:
            group = "stream"
            t0 = time.perf_counter()
            with self.tracer.span("stream.run", group, job_group=group), self.job_group(group):
                sinks = run_streaming_plan(spark, str(self.source), SCHEMA, m, self.agg, sink_prefix="perfbench")
            run_s = time.perf_counter() - t0
            got = pd.concat([spark.table(t).where(f"win_end <= {H}").toPandas() for t in sinks.values()])
            self.ops.record("streaming WCG-FW", mismatch(got, expected))
            for t in sinks.values():
                spark.catalog.dropTempView(t)
            _drain(listener)
        finally:
            spark.conf.set("spark.sql.shuffle.partitions", "64")
            spark.streams.removeListener(listener)
        progress = listener.progress
        last: dict[str, object] = {}
        for pr in progress:
            last[pr.id] = pr
        out.update({
            "stream.queries": listener.started,
            "stream.batches": len(progress),
            "stream.state_rows": sum(op.numRowsTotal for pr in last.values() for op in pr.stateOperators),
            "stream.rows_dropped_by_watermark": sum(
                op.numRowsDroppedByWatermark for pr in progress for op in pr.stateOperators
            ),
            "stream.trigger_ms": statistics.median(
                [pr.durationMs.get("triggerExecution", 0) for pr in progress] or [0]
            ),
            "stream.codegen_fallbacks": _count_fallbacks(codegen_log) - n_log,
            "stream.run_s": run_s,
        })
        return out


def _drain(listener: S.ProgressListener, quiet_s: float = 0.5, limit_s: float = 10.0) -> None:
    """Wait until the listener has received no event for ``quiet_s``."""
    deadline = time.monotonic() + limit_s
    n = -1
    while time.monotonic() < deadline and n != len(listener.progress):
        n = len(listener.progress)
        time.sleep(quiet_s)


def _count_fallbacks(log: Path) -> int:
    """Whole-stage codegen fallbacks logged so far."""
    if not log.exists():
        return 0
    with open(log) as fh:
        return sum("codegen disabled" in line.lower() for line in fh)
