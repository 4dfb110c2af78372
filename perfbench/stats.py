"""Order statistics the benchmark reports."""

from __future__ import annotations

__all__ = ["median", "nearest_rank", "tail_percentile", "TAIL_LADDER"]

#: Candidate tail percentiles, in permille so the rank arithmetic is exact.
TAIL_LADDER = (500, 750, 900, 950, 990, 999)

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def median(values) -> float:
    values = sorted(values)
    n = len(values)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2


def nearest_rank(sorted_values, permille: int) -> float:
    """The nearest-rank percentile: the ceil(n·p)-th smallest value."""
    n = len(sorted_values)
    rank = -(-n * permille // 1000)
    return sorted_values[max(rank, 1) - 1]


def tail_percentile(values):
    """``(percentile, value, n)`` for the highest ladder percentile with
    at least ten samples beyond it, or ``None`` when even the median has
    fewer than ten samples above it.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for permille in TAIL_LADDER:
        rank = -(-n * permille // 1000)
        if n - rank >= MIN_BEYOND:
            best = (permille / 10, nearest_rank(ordered, permille), n)
    return best
