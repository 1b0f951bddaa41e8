"""Correctness gate: every plan's rows against BL's, and BL against DuckDB.

Rows are aligned on (window_id, win_start, win_end, key) and values
compared with |Δ| ≤ 1e-9·max(1, |v|). Values are never rounded or hashed:
on Example 7 under AVG, BL and WCG-FW differ by at most 7.8e-14, yet a few
values sit on a 6th-decimal rounding tie.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.aggregates import AggSpec
from repro.core.windows import Window
from repro.engine.oracle_sql import multi_window_sql
from repro.oracle import assert_equivalent

KEYS = ["window_id", "win_start", "win_end", "key"]
RTOL = 1e-9


def canonical(pdf: pd.DataFrame) -> pd.DataFrame:
    return pdf[KEYS + ["value"]].sort_values(KEYS, kind="stable").reset_index(drop=True)


def mismatch(got: pd.DataFrame, ref: pd.DataFrame) -> str | None:
    """None when ``got`` has exactly ``ref``'s rows; else a reason.
    ``ref`` must already be :func:`canonical`."""
    if len(got) != len(ref):
        return f"{len(got)} rows, BL has {len(ref)}"
    got = canonical(got)
    for k in KEYS:
        if not np.array_equal(got[k].to_numpy(), ref[k].to_numpy()):
            return f"row keys differ from BL in column {k}"
    a = got["value"].to_numpy(dtype=float)
    b = ref["value"].to_numpy(dtype=float)
    bad = ~(np.abs(a - b) <= RTOL * np.maximum(1.0, np.abs(b)))
    if bad.any():
        i = int(np.argmax(bad))
        return f"{int(bad.sum())} values differ from BL, first {got.loc[i, KEYS].tolist()}: {a[i]!r} vs {b[i]!r}"
    return None


def check_against_oracle(bl_df, events_pdf: pd.DataFrame, windows: list[Window], agg: AggSpec, horizon: int) -> None:
    """Raise AssertionError when BL differs from the DuckDB oracle."""
    sql = multi_window_sql(list(windows), agg, horizon)
    assert_equivalent(bl_df, sql, events=events_pdf[["tick", "key", "v"]])
