"""Layered benchmark of the rewritten Spark plans.

    python3 perfbench/run.py --workload tumbling_factor --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. With ``--trace 0`` the last stdout line
is a JSON object holding every end-to-end metric; with ``--trace 1`` it
holds every per-layer metric, and the spans are written to
``.perfbench_out/``. See NOTES.md for what each metric means.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import shutil
import signal
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORES = min(4, len(os.sched_getaffinity(0)))
CODEGEN_CACHE = 1000


def _configure_spark_env(tmp: Path) -> Path:
    """Spark reads these at JVM launch; conftest.py is not loaded here."""
    codegen_log = tmp / "codegen.log"
    java_opts = " ".join([
        f"-Dlog4j2.configurationFile={(ROOT / 'perfbench' / 'log4j2.properties').as_uri()}",
        f"-Dperfbench.codegen_log={codegen_log}",
        f"-Djava.io.tmpdir={tmp / 'java'}",
        "-Duser.timezone=UTC",
        # The JIT compiles hot methods after a tenth of its usual call
        # counts, so that the warm-up rounds bring the JVM near the steady
        # state a long-lived session reaches (see NOTES.md, "Warm-up and the JVM").
        "-XX:CompileThresholdScaling=0.1",
    ])
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{CORES}]",
        "--driver-memory 2g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        # Spark keeps 100 generated classes by default, fewer than the
        # plans of one round generate, so each query would evict the
        # classes of the others and recompile its own (see NOTES.md).
        f"--conf spark.sql.codegen.cache.maxEntries={CODEGEN_CACHE}",
        f"--driver-java-options {shlex.quote(java_opts)}",
        "pyspark-shell",
    ])
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp / "local")
    os.environ["TMPDIR"] = str(tmp / "python")
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for d in ("java", "local", "python"):
        (tmp / d).mkdir(parents=True, exist_ok=True)
    return codegen_log


_T0 = time.perf_counter()


def _log(msg: str) -> None:
    print(f"perfbench: {time.perf_counter() - _T0:7.1f}s {msg}", file=sys.stderr, flush=True)


_median = statistics.median  # raises on no samples: a metric is never made up


class _Sweep:
    """The optimizer sweep and the figures, timed in passes spread over the
    run (see ``sweep.retime``): the first pass also classifies every call."""

    _compile_next = True
    PASSES = 7  # passes of each kind after which again() does nothing

    def __init__(self, seed: int, traced: bool) -> None:
        from perfbench.sweep import run_sweep, time_figures

        self.traced = traced
        self.res = run_sweep(seed, traced)
        self.figs = [time_figures()]
        self.compile_passes = 1
        for e in self.res.errors:
            print(f"perfbench: FAILED optimize {e}", file=sys.stderr)

    def again(self) -> None:
        """One more pass, of the compile slice and of the figures in turn.
        Passes run between Spark queries, each at its own moment, so that
        a slow spell of the machine sets few of them."""
        from perfbench.sweep import retime, time_figures

        if self.compile_passes >= self.PASSES and len(self.figs) >= self.PASSES:
            return
        if self._compile_next:
            retime(self.res)
            self.compile_passes += 1
        else:
            self.figs.append(time_figures())
        self._compile_next = not self._compile_next

    def metrics(self) -> dict[str, float]:
        sw, figs = self.res, self.figs
        q = statistics.quantiles(sw.compile_ms, n=10)
        out = {
            "compile_ms.p50": q[4],
            "compile_ms.p90": q[8],
            # Each figure's fastest pass, summed, as compile_ms keeps each
            # input's fastest pass: a slow spell then sets few of the terms.
            "figures_s": sum(min(f[k] for f in figs) for k in figs[0]),
            "sweep_ok_frac": sw.returned / sw.calls,
            "_samples": f"compile n={len(sw.compile_ms)} x{self.compile_passes} passes, "
            f"sweep calls={sw.calls}, figure passes={len(figs)}",
        }
        if self.traced:
            out.update({
                "core.optimize_ms": _median(sw.compile_ms),
                "core.build_wcg_ms": _median(sw.layer_ms["build_wcg"]),
                "core.alg1_ms": _median(sw.layer_ms["alg1"]),
                "core.alg2_ms": _median(sw.layer_ms["alg2"]),
                **{f"core.fail.{k}": v for k, v in sw.fail_kinds.items()},
                "core.reroot_wins": sw.reroot_wins,
                **{f"evalfw.{k}_s": min(f[k] for f in figs) for k in figs[0]},
            })
        return out


def _plan_shape(run) -> dict[str, float]:
    from repro.core.cost import baseline_cost
    from repro.core.factor import optimize
    from repro.core.mincost import find_min_cost_wcg
    from repro.core.wcg import build_wcg

    W, agg, eta = run.windows, run.agg, run.wl.eta
    m1, m2 = find_min_cost_wcg(W, agg, eta), optimize(W, agg, eta)
    bl = baseline_cost(W, eta, m1.R)

    def depth(w):
        return 1 if m2.parent[w] is None else 1 + depth(m2.parent[w])

    return {
        "core.wcg_edges": sum(len(c) for c in build_wcg(W, agg.semantics).edges.values()),
        "core.factor_windows": len(m2.factors),
        "core.forest_depth": max(depth(w) for w in m2.windows),
        "core.model_cost.bl": bl,
        "core.model_cost.wcg": m1.total,
        "core.model_cost.wcg_fw": m2.total,
        "core.model_cost_ratio": m2.total / bl,
    }


def _slicing(run) -> dict[str, float]:
    from repro.slicing.compose import composed_edges
    from repro.slicing.cost import table1

    W, H = run.windows, run.wl.horizon
    compose, t1 = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        edges = composed_edges(W, "paired", H + max(w.r for w in W))
        compose.append((time.perf_counter() - t0) * 1e3)
        t0 = time.perf_counter()
        table1(W, run.wl.eta)
        t1.append((time.perf_counter() - t0) * 1e3)
    return {"slicing.compose_ms": _median(compose), "slicing.edges": len(edges),
            "slicing.table1_ms": _median(t1)}


def _spark_layers(run, traced_ex, stages) -> dict[str, float]:
    from perfbench.spans import group_totals

    out: dict[str, float] = {}
    for p, exs in traced_ex.items():
        if not exs:
            continue
        per = []
        for ex in exs:
            c = dict(ex.counters)
            c.update(group_totals(stages, ex.query))
            c["exec_s"] = ex.phases["collect"]
            c["busy_frac"] = c["executor_run_s"] / (c["exec_s"] * run.cores)
            per.append(c)
        if p == "ref_fused":
            out["spark.stages.ref_fused"] = _median([c["stages"] for c in per])
            continue
        for k in ("exec_s", "jobs", "stages", "tasks", "failed_tasks", "shuffle_write_bytes",
                  "shuffle_read_records", "executor_run_s", "busy_frac"):
            out[f"spark.{k}.{p}"] = _median([c[k] for c in per])
        out[f"engine.lower_ms.{p}"] = _median([ex.phases["lower"] * 1e3 for ex in exs])
        if p in ("wcg", "wcg_fw"):
            out[f"engine.persisted.{p}"] = _median([ex.phases["persisted"] for ex in exs])
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool, tmp: Path, codegen_log: Path):
    from perfbench.spark_runs import MIN_ROUNDS, PLANS, ROUND, SETUPS, SparkRun
    from perfbench.spans import read_event_log
    from perfbench.workloads import WORKLOADS

    run = SparkRun(WORKLOADS[name], seed, tmp, CORES)
    oracle_ok = True
    m: dict[str, float] = {}
    try:
        # The first sweep pass runs while the first set-up launches the JVM,
        # which spends most of that time outside Python; that set-up is the
        # slowest of the run, so it does not set setup_s. The other passes
        # run while Spark is idle, after queries of the warm-up and timed
        # rounds, and each input keeps its fastest pass.
        with ThreadPoolExecutor(max_workers=1) as pool:
            cold = pool.submit(run.set_up)
            sweep = _Sweep(seed, traced)
            cold.result()
        for _ in range(SETUPS - 1):
            run.set_up()
        _log("optimizer sweep and set-ups done")
        plans = list(PLANS)
        # Warm-up, not timed: every plan, then every plan but SP, the
        # longest, once more. The first query is BL, whose rows become the
        # reference.
        run.rounds(plans, 0.0, traced=False, idle=sweep.again, min_rounds=1)
        run.rounds([p for p in plans if p != "sp"], 0.0, traced=False, idle=sweep.again,
                   min_rounds=1)
        _log("warm-up rounds done")
        try:
            m["setup.oracle_check_s"] = run.oracle_check()
        except AssertionError as e:
            oracle_ok = False
            run.ops.record("BL vs DuckDB oracle", str(e))
        # A traced run splits its time between untraced and traced rounds,
        # whose difference is trace.overhead_frac. Its metrics have no bound,
        # so one round of each is enough.
        budget, min_rounds = (seconds / 2, 1) if traced else (seconds, MIN_ROUNDS)
        untraced = run.rounds(list(ROUND), budget, traced=False, idle=sweep.again, min_rounds=min_rounds)
        for p in plans:
            if untraced[p]:  # else every execution failed: no {p}_s, and the run fails
                m[f"{p}_s"] = _median([ex.seconds for ex in untraced[p]])
        samples = {p: [round(ex.seconds, 3) for ex in untraced[p]] for p in plans}
        _log("timed rounds done")
        if traced:
            run.set_up(event_log=True)
            traced_ex = run.rounds(plans + ["ref_fused"], budget, traced=True, min_rounds=1)
            if traced_ex["ref_fused"]:
                m["ref.bl_fused_s"] = _median([ex.seconds for ex in traced_ex["ref_fused"]])
            if all(traced_ex[p] and f"{p}_s" in m for p in plans):
                m["trace.overhead_frac"] = (
                    sum(_median([ex.seconds for ex in traced_ex[p]]) for p in plans)
                    / sum(m[f"{p}_s"] for p in plans) - 1.0
                )
            _log("traced rounds done")
            m.update(run.isolated_operators())
            _log("isolated operators done")
            m.update(run.streaming(codegen_log))
            _log("streaming done")
            m.update(_plan_shape(run))
            m.update(_slicing(run))
    finally:
        run.stop()
    m["setup_s"] = _median(run.setup["setup_s"][:SETUPS])
    m["setup.session_s"] = _median(run.setup["session_s"][:SETUPS])
    m["setup.generate_s"] = _median(run.setup["generate_s"][:SETUPS])
    m["setup.source_write_s"] = _median(run.setup["source_write_s"][:SETUPS])
    if traced:
        stages = read_event_log(run.event_log)
        m.update(_spark_layers(run, traced_ex, stages))
        run.tracer.add_stage_spans(stages)
    m.update(sweep.metrics())
    # The Spark operations, and the sweep's in-domain calls as one more
    # operation, so that one plan failing every time moves ok_frac far.
    sweep_failed = sweep.res.failed > 0
    m["ok_frac"] = 1.0 - (run.ops.failed + sweep_failed) / (run.ops.attempted + 1)
    m["_samples"] = (
        f"plan seconds {samples}; setups {[round(x, 3) for x in run.setup['setup_s']]}; "
        + m["_samples"]
    )
    counts = {"attempted": run.ops.attempted + sweep.res.attempted,
              "failed": run.ops.failed + sweep.res.failed}
    return m, run, oracle_ok, counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    # On SIGTERM, unwind through the finally below, which stops the JVM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    codegen_log = _configure_spark_env(tmp)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        m, run, oracle_ok, counts = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), tmp, codegen_log
        )
        if args.trace:
            out = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.json"
            run.tracer.write(out)
            print(f"perfbench: {len(run.tracer.spans)} spans written to {out}", file=sys.stderr)
    finally:
        _stop_jvm()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    _log("stopped")
    # A metric is missing only when every execution it times failed.
    missing = [x["name"] for x in wanted if x["name"] not in m]
    for name in missing:
        print(f"perfbench: metric {name} has no valid sample", file=sys.stderr)
    metrics = {x["name"]: {"value": float(m[x["name"]]), "unit": x["unit"]}
               for x in wanted if x["name"] in m}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} ({m['_samples']})")
    for k, v in metrics.items():
        print(f"#   {k:<40} {v['value']:>16.6g} {v['unit']}")
    correct = oracle_ok and counts["failed"] == 0 and not missing
    print(json.dumps({"correct": correct, **counts, "metrics": metrics}), flush=True)
    if not oracle_ok:
        print("perfbench: BL DIFFERS FROM THE DUCKDB ORACLE", file=sys.stderr)
        return 1
    return 1 if missing else 0


def _stop_jvm() -> None:
    """Shut the Py4J gateway and wait for the JVM it launched to exit."""
    if "pyspark" not in sys.modules:
        return
    from pyspark import SparkContext

    gw = SparkContext._gateway
    if gw is None:
        return
    gw.shutdown()
    proc = getattr(gw, "proc", None)
    if proc is not None:
        if proc.stdin:
            proc.stdin.close()
        proc.wait(timeout=60)
    SparkContext._gateway = None
    SparkContext._jvm = None


if __name__ == "__main__":
    sys.exit(main())
