"""Median and the tail-percentile rule."""

import pytest
from stats import median, tail_percentile


def test_median_odd_and_even():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        median([])


@pytest.mark.parametrize(
    "n, percentile",
    [
        (19, None),  # the median has only 9 samples beyond it
        (20, 50.0),  # exactly 10 beyond the median
        (39, 50.0),
        (40, 75.0),  # exactly 10 beyond p75
        (99, 75.0),  # p90 would leave 9 beyond
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_tail_is_highest_percentile_with_ten_beyond(n, percentile):
    samples = list(range(1, n + 1))
    tail = tail_percentile(samples)
    if percentile is None:
        assert tail is None
        return
    p, value, count = tail
    assert (p, count) == (percentile, n)
    assert sum(1 for s in samples if s > value) >= 10
    assert value == samples[-(-n * int(p * 10) // 1000) - 1]


def test_tail_ignores_input_order():
    samples = [5.0, 1.0, 4.0] * 10
    assert tail_percentile(samples) == tail_percentile(sorted(samples))
