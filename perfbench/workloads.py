"""The benchmark's workloads: window sets, aggregate, event rate and the
seeded inputs each run makes.

The workload seed only chooses input *values* (event keys and values, and
the optimizer sweep's window sets); sizes are fixed per workload so every
seed measures the same amount of work.
"""
from __future__ import annotations

import random
import sys
from dataclasses import dataclass

from repro.core.windows import Window
from repro.workloads import generators as G


@dataclass(frozen=True)
class SparkWorkload:
    name: str
    windows: tuple[Window, ...]
    agg: str
    eta: int
    horizon: int
    n_keys: int = 8


WORKLOADS = {
    # Example 7 of the paper. r = s, so no plan expands rows; time is set
    # by stages, shuffles and persists. AVG gives partitioned-by semantics
    # and a 2-column algebraic state; WCG-FW inserts the factor window
    # <10,10> under S<1,1>. The only plan here that streaming can run.
    "tumbling_factor": SparkWorkload(
        "tumbling_factor", tuple(Window(x, x) for x in (20, 30, 40)), "avg", 50, 2400
    ),
    # Deep hopping chain under MIN (covered-by semantics). BL expands every
    # event into 6+12+24+48 = 90 window instances, but at 24k events fixed
    # per-stage cost still sets most of each plan's time (see NOTES.md).
    "hop_chain": SparkWorkload(
        "hop_chain",
        (Window(60, 10), Window(120, 10), Window(240, 10), Window(480, 10)),
        "min",
        5,
        4800,
    ),
}

# Optimizer sweep (no Spark). Each generated set runs under every
# aggregate at every event rate. General (hopping) sets under SUM/AVG and
# the arbitrary r mod s != 0 sets are outside the optimizer's domain today
# (ROADMAP item 1); they stay in the sweep so their failures show.
SWEEP_AGGS = ("min", "sum", "avg")
SWEEP_ETAS = (1, 10, 100)
SWEEP_SETS_PER_CONFIG = 16
SWEEP_ARBITRARY_SETS = 24
S_MAX, K_MAX = 16, 8


@dataclass(frozen=True)
class SweepSet:
    label: str
    windows: tuple[Window, ...]
    tumbling: bool
    arbitrary: bool = False

    def in_domain(self, agg: str) -> bool:
        """Whether the paper's optimizer must return a plan for ``agg``."""
        return not self.arbitrary and (self.tumbling or agg in ("min", "max"))

    def compile_slice(self, agg: str) -> bool:
        """The slice timed by ``compile_ms``: general sets under MIN and
        tumbling sets under SUM/AVG."""
        if self.arbitrary:
            return False
        return agg in ("sum", "avg") if self.tumbling else agg == "min"


def sweep_sets(seed: int) -> list[SweepSet]:
    out: list[SweepSet] = []
    for i in range(SWEEP_SETS_PER_CONFIG):
        s = seed * 1000 + i
        for tumbling in (False, True):
            kind = "tumbling" if tumbling else "general"
            for n in (5, 10):
                for gname, gen in (
                    ("random", G.random_gen),
                    ("chain", G.chain_gen),
                    ("star", G.star_gen),
                ):
                    ws = gen(n=n, s_max=S_MAX, k_max=K_MAX, seed=s, tumbling=tumbling)
                    out.append(SweepSet(f"{gname}/{kind}/{n}/{s}", tuple(ws), tumbling))
            gs, ws = _graph_set(s, tumbling)
            out.append(SweepSet(f"graph/{kind}/{gs}", tuple(ws), tumbling))
    rnd = random.Random(repr(("arbitrary", seed)))
    for i in range(SWEEP_ARBITRARY_SETS):
        ws: list[Window] = []
        while len(ws) < 5:
            s = rnd.randint(2, S_MAX)
            r = rnd.randint(s + 1, K_MAX * s)
            if r % s and Window(r, s) not in ws:
                ws.append(Window(r, s))
        out.append(SweepSet(f"arbitrary/{seed}/{i}", tuple(ws), False, arbitrary=True))
    return out


def _graph_set(s: int, tumbling: bool) -> tuple[int, list[Window]]:
    """A RandomGraphGen set from seed ``s``. Algorithm 6 gives up on about
    one seed in 6000 (no distinct windows left for a level); the next
    seed in ``s``'s own sequence is then used, so every run has the same
    number of sets. Each skip is reported on stderr."""
    for gs in range(s, s + 10 * SWEEP_SETS_PER_CONFIG, SWEEP_SETS_PER_CONFIG):
        try:
            return gs, G.random_graph_gen(
                levels=3, base=2, delta=2, s_max=S_MAX, k_max=K_MAX, seed=gs, tumbling=tumbling
            )
        except RuntimeError as e:
            print(f"perfbench: random_graph_gen seed={gs} tumbling={tumbling}: {e}; "
                  "using the next seed", file=sys.stderr)
    raise RuntimeError(f"random_graph_gen failed on 10 seeds from {s}")
