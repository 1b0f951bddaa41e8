"""The optimizer sweep (no Spark) and the Fig 11–15 regeneration.

Every optimize() call is classified: in-domain calls must return a legal
plan (each forest edge allowed, the query windows exposed, model cost at
most BL's) and count toward the run's attempted/failed operations;
out-of-domain calls (general windows under SUM/AVG, r mod s != 0) may
raise, and their outcome is reported, not gated, through
``sweep_ok_frac`` and ``core.fail.*``.
"""
from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.core.aggregates import get_aggregate
from repro.core.cost import baseline_cost, raw_cost, rollup_cost
from repro.core.factor import algorithm2, optimize
from repro.core.mincost import MinCostWCG, find_min_cost_wcg
from repro.core.wcg import build_wcg, edge_allowed
from repro.evalfw.harness import ALL_FIGURES

from perfbench.workloads import SWEEP_AGGS, SWEEP_ETAS, sweep_sets

#: compile_ms times the compile slice at one event rate: the optimizer's
#: work does not depend on η, so the other rates would repeat each input.
COMPILE_ETA = 10



@dataclass
class SweepResult:
    calls: int = 0
    returned: int = 0
    attempted: int = 0  # in-domain calls
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    compile_ms: list[float] = field(default_factory=list)  # per compile-slice call
    compile_calls: list[tuple] = field(default_factory=list)  # (windows, agg, eta)
    fail_kinds: dict[str, int] = field(
        default_factory=lambda: {"not_covered": 0, "period_incompatible": 0, "other": 0}
    )
    layer_ms: dict[str, list[float]] = field(
        default_factory=lambda: {"build_wcg": [], "alg1": [], "alg2": []}
    )
    reroot_wins: int = 0


def _illegal(m: MinCostWCG, windows, agg) -> str | None:
    for w, p in m.parent.items():
        if p is not None and not edge_allowed(w, p, agg.semantics):
            return f"illegal edge {p} -> {w}"
    if sorted(m.exposed()) != sorted(windows):
        return f"exposes {sorted(m.exposed())}"
    if m.total > baseline_cost(list(windows), m.eta, m.R):
        return f"model cost {m.total} above BL"
    return None


def reroot_gain(m: MinCostWCG, agg) -> int:
    """Model cost saved by dropping the best single factor window and
    letting its children take their best remaining parent (or raw):
    the re-rooting of ROADMAP item 1. 0 when no drop helps."""
    best = 0
    for f in m.factors:
        kids = m.children(f)
        keep = m.cost[f] + sum(m.cost[c] for c in kids)
        alt = 0
        for c in kids:
            options = [raw_cost(c, m.R, m.eta)]
            options += [
                rollup_cost(c, q, m.R)
                for q in m.windows
                if q not in (f, c) and edge_allowed(c, q, agg.semantics)
            ]
            alt += min(options)
        best = max(best, keep - alt)
    return best


def _fail_kind(msg: str) -> str:
    if "not covered" in msg:
        return "not_covered"
    if "incompatible" in msg:
        return "period_incompatible"
    return "other"


@contextmanager
def _collector_off():
    """As in ``timeit``, the cyclic garbage collector is off while calls
    are timed, so a collection triggered by earlier allocations is not
    charged to whichever call it lands in."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def run_sweep(seed: int, traced: bool) -> SweepResult:
    """Run and classify every sweep call once, timing each."""
    sets = sweep_sets(seed)
    with _collector_off():
        return _sweep(sets, traced)


def retime(res: SweepResult) -> None:
    """Time every compile-slice call again, keeping each call's fastest
    time. Passes made at different points of a run keep a slow spell of
    the machine from setting a call's time."""
    with _collector_off():
        for i, (ws, agg, eta) in enumerate(res.compile_calls):
            t0 = time.perf_counter()
            optimize(ws, agg, eta)
            res.compile_ms[i] = min(res.compile_ms[i], (time.perf_counter() - t0) * 1e3)


def _sweep(sets, traced: bool) -> SweepResult:
    res = SweepResult()
    for ss in sets:
        ws = list(ss.windows)
        for agg_name in SWEEP_AGGS:
            agg = get_aggregate(agg_name)
            for eta in SWEEP_ETAS:
                res.calls += 1
                in_domain = ss.in_domain(agg_name)
                res.attempted += in_domain
                try:
                    t0 = time.perf_counter()
                    m = optimize(ws, agg, eta)
                    dt = (time.perf_counter() - t0) * 1e3
                except Exception as e:  # the optimizer's outcome is what is measured
                    res.fail_kinds[_fail_kind(str(e))] += 1
                    if in_domain:
                        res.failed += 1
                        res.errors.append(f"{ss.label} {agg_name} eta={eta}: {e!r}")
                    continue
                res.returned += 1
                if in_domain and (why := _illegal(m, ws, agg)):
                    res.failed += 1
                    res.errors.append(f"{ss.label} {agg_name} eta={eta}: {why}")
                if ss.compile_slice(agg_name) and eta == COMPILE_ETA:
                    res.compile_ms.append(dt)
                    res.compile_calls.append((ws, agg, eta))
                    if traced:
                        _time_layers(res, ws, agg, eta)
                if traced and reroot_gain(m, agg) > 0:
                    res.reroot_wins += 1
    return res


def _time_layers(res: SweepResult, ws, agg, eta) -> None:
    for name, fn in (
        ("build_wcg", lambda: build_wcg(ws, agg.semantics)),
        ("alg1", lambda: find_min_cost_wcg(ws, agg, eta)),
        ("alg2", lambda: algorithm2(ws, agg, eta)),
    ):
        t0 = time.perf_counter()
        fn()
        res.layer_ms[name].append((time.perf_counter() - t0) * 1e3)


def time_figures() -> dict[str, float]:
    """Seconds to regenerate each of the Fig 11–15 tables."""
    out = {}
    with _collector_off():
        for name, fn in ALL_FIGURES.items():
            t0 = time.perf_counter()
            fn()
            out[name] = time.perf_counter() - t0
    return out
