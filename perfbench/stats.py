"""Tail statistics of the benchmark's latency samples."""

from __future__ import annotations

import math

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99, 95, 90)
#: A tail percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n: int) -> float | None:
    """Highest of TAIL_PERCENTILES with at least MIN_BEYOND of n samples beyond it.

    None when even the lowest candidate has too few samples beyond it;
    callers then report the maximum and say so.
    """
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= MIN_BEYOND:
            return p
    return None


def tail(values: list[float]) -> tuple[float, str]:
    """The tail statistic of ``values`` and its label (``p95``, ``max``...)."""
    p = tail_percentile(len(values))
    if p is None:
        return max(values), "max"
    return percentile(values, p), f"p{p}"
