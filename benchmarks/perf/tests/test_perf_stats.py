"""The percentile helper's ten-beyond rule and the driver's quartiles."""

import statistics

import pytest

from stats import (MIN_BEYOND, percentile, quartiles, samples_beyond,
                   spread)


@pytest.mark.parametrize("q, too_few, enough", [
    (90, 99, 100), (95, 199, 200), (99, 999, 1000)])
def test_tail_needs_ten_samples_beyond(q, too_few, enough):
    assert samples_beyond(enough, q) == MIN_BEYOND
    with pytest.raises(ValueError, match="beyond"):
        percentile(list(range(too_few)), q)
    assert percentile(list(range(enough)), q) > percentile(
        list(range(enough)), 50)


def test_smoke_runs_may_print_an_unsupported_tail():
    assert percentile([1.0, 2.0, 3.0], 95, strict=False) == pytest.approx(2.9)


def test_median_needs_no_tail():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    with pytest.raises(ValueError, match="no samples"):
        percentile([], 50)


def test_quartiles_are_the_drivers():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == {"q1": q1, "median": med, "q3": q3}
    assert spread(values) == pytest.approx((q3 - q1) / med)
    assert quartiles([4.0]) == {"q1": 4.0, "median": 4.0, "q3": 4.0}
