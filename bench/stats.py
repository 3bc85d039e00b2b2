"""Order statistics for latency samples."""

from __future__ import annotations

import math

#: candidate tail percentiles, lowest first.
TAIL_LADDER = (90.0, 95.0, 98.0, 99.0, 99.5, 99.8, 99.9, 99.95, 99.98, 99.99)
#: a tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(sorted_values, pct: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    pos = (n - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def samples_beyond(n: int, pct: float) -> int:
    """Samples of n lying strictly above the interpolated percentile."""
    basis_points = round(pct * 100)
    return n - 1 - (n - 1) * basis_points // 10_000


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least TAIL_MIN_BEYOND of n
    samples beyond it, or None when even the lowest has fewer."""
    best = None
    for pct in TAIL_LADDER:
        if n and samples_beyond(n, pct) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def summarize(values) -> dict:
    """Median and tail of a latency sample, with the tail's percentile and
    the number of samples beyond it stated."""
    ordered = sorted(values)
    n = len(ordered)
    pct = tail_percentile(n)
    out = {"n": n, "p50": percentile(ordered, 50.0), "tail_pct": pct,
           "tail": None, "beyond": None}
    if pct is not None:
        out["tail"] = percentile(ordered, pct)
        out["beyond"] = samples_beyond(n, pct)
    return out
