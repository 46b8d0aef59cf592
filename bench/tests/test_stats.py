import pytest

from stats import TAIL_SAMPLES, median, percentile, quartile_spread, samples_beyond


def test_median_of_even_and_odd_counts():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile(values, 1) == 1
    assert percentile([5.0], 90) == 5.0
    # 12 samples: rank ceil(10.8) = 11
    assert percentile(list(range(12)), 90) == 10


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_ten_samples_beyond_rule():
    # 108 requests: rank 98, so exactly ten samples lie beyond p90.
    assert samples_beyond(108, 90) == TAIL_SAMPLES == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(108, 95) == 5
    assert samples_beyond(9, 90) == 0
    assert samples_beyond(144, 90) == 14


def test_quartile_spread_matches_the_contract_formula():
    import statistics

    values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.2, 0.8, 1.0, 1.02, 0.98]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert quartile_spread(values) == (q3 - q1) / statistics.median(values)
