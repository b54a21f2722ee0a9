"""Order statistics for benchmark samples."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(n: int, p: float) -> int:
    """1-based nearest-rank index of the p-th percentile of n samples."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float | None:
    """Highest candidate percentile with at least `min_beyond` samples above it.

    None when even the median leaves fewer than `min_beyond` samples beyond.
    """
    for p in TAIL_PERCENTILES:
        if n - nearest_rank(n, p) >= min_beyond:
            return p
    return None


def describe(samples: list[float]) -> dict:
    """Median, sample count, and the tail percentile when there are enough samples."""
    ordered = sorted(samples)
    out = {"n": len(ordered), "median": statistics.median(ordered)}
    p = tail_percentile(len(ordered))
    if p is not None:
        out["tail_percentile"] = p
        out["tail"] = ordered[nearest_rank(len(ordered), p) - 1]
    return out


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
