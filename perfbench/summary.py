"""Order statistics for the benchmark report.

A timing is reported as its median and its tail: the highest standard
percentile that still has at least ten samples beyond it, so the tail never
rests on one or two outliers.  Percentiles use the nearest-rank rule, which
always returns a measured sample.
"""

from __future__ import annotations

import math

TAIL_LEVELS = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(samples, level: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least `level`%
    of the samples at or below it."""
    if not samples:
        raise ValueError("no samples")
    if not 0 < level <= 100:
        raise ValueError("level must be in (0, 100]")
    ordered = sorted(samples)
    return ordered[_rank(level, len(ordered)) - 1]


def _rank(level: float, n: int) -> int:
    # The tolerance keeps binary rounding (99.9 * n / 100) from adding a rank.
    return max(1, math.ceil(level * n / 100.0 - 1e-9))


def tail_level(n: int) -> float | None:
    """Highest of TAIL_LEVELS whose nearest-rank percentile over n samples
    leaves at least MIN_BEYOND samples above it; None when none does."""
    best = None
    for level in TAIL_LEVELS:
        if n - _rank(level, n) >= MIN_BEYOND:
            best = level
    return best
