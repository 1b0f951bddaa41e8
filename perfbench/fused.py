"""Fused BL: the reference plan a rewritten plan has to beat.

Every event is expanded once into every (window, instance) pair it
belongs to, and a single groupBy computes all windows' aggregates. It
returns BL's rows (window_id, win_start, win_end, key, value).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.aggregates import AggSpec
from repro.core.windows import Window
from repro.engine.window_agg import window_id


def _instances(i: int, w: Window):
    """Array of (window index, start) for the instances ``[a, a + r)``
    with ``a = j·s >= 0`` that contain ``tick``."""
    t = F.col("tick")
    # ceil((t − r + 1)/s), written as −floor((r − 1 − t)/s).
    lo = F.greatest(F.lit(0), -F.floor((F.lit(w.r - 1) - t) / F.lit(w.s)))
    hi = F.floor(t / F.lit(w.s))
    return F.transform(
        F.sequence(lo.cast("long"), hi.cast("long")),
        lambda j: F.struct(F.lit(i).alias("wi"), (j * F.lit(w.s)).alias("start")),
    )


def fused_baseline(events: DataFrame, windows: list[Window], agg: AggSpec) -> DataFrame:
    ws = sorted(windows)
    pairs = F.explode(F.concat(*[_instances(i, w) for i, w in enumerate(ws)]))
    ranges = F.get(F.array(*[F.lit(w.r) for w in ws]), F.col("wi"))
    ids = F.get(F.array(*[F.lit(window_id(w)) for w in ws]), F.col("wi"))
    return (
        events.select(pairs.alias("p"), "key", "v")
        .groupBy(F.col("p.wi").alias("wi"), F.col("p.start").alias("win_start"), "key")
        .agg(*agg.partial_exprs("v"))
        .select(
            ids.alias("window_id"),
            F.col("win_start"),
            (F.col("win_start") + ranges).alias("win_end"),
            F.col("key"),
            agg.final_expr().alias("value"),
        )
    )
