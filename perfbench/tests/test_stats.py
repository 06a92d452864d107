import pytest

from stats import median, percentile, tail_percentile


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == pytest.approx(2.5)
    assert percentile(values, 25) == pytest.approx(1.75)
    assert percentile(values, 90) == pytest.approx(3.7)


def test_median_of_odd_and_single():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([5.0]) == 5.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_tail_needs_ten_samples_beyond():
    assert tail_percentile(list(range(99)), 90) is None
    assert tail_percentile([float(i) for i in range(100)], 90) == pytest.approx(89.1)
