"""Percentile choice and failure arithmetic."""

import pytest

from perfbench.stats import (
    failed_ratio,
    highest_supported_tail,
    percentile,
    samples_beyond,
    supports,
)


def test_nearest_rank_percentiles():
    values = [float(x) for x in range(1, 101)]
    assert percentile(values, 0.5) == 50.0
    assert percentile(values, 0.95) == 95.0
    assert percentile(values, 1.0) == 100.0
    assert samples_beyond(100, 0.95) == 5


def test_p95_needs_ten_samples_beyond_it():
    assert supports(200, 0.95)
    assert samples_beyond(200, 0.95) == 10
    assert not supports(199, 0.95)
    assert not supports(0, 0.5)


@pytest.mark.parametrize(
    "count, tail",
    [(10_000, 0.999), (9_999, 0.99), (1_000, 0.99), (999, 0.95), (200, 0.95), (100, 0.9), (99, None)],
)
def test_highest_supported_tail(count, tail):
    assert highest_supported_tail(count) == tail


def test_failed_ratio():
    assert failed_ratio(0, 1200) == 0.0
    assert failed_ratio(12, 1200) == 0.01
    assert failed_ratio(0, 0) == 0.0
    with pytest.raises(ValueError):
        failed_ratio(5, 4)
