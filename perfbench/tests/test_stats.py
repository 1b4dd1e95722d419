"""The tail-percentile rule and the median."""

import pytest

from pb.stats import median, tail


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_tail_leaves_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]   # 1..100
    t = tail(values)
    assert t["value"] == 90.0
    assert t["percentile"] == 90.0
    assert t["beyond"] == 10
    assert sum(v > t["value"] for v in values) == 10


def test_tail_rank_is_order_independent():
    values = [float(i) for i in range(40)]
    assert tail(values) == tail(list(reversed(values)))
    t = tail(values)
    assert t["value"] == 29.0 and t["beyond"] == 10
    assert t["percentile"] == pytest.approx(75.0)


def test_tail_never_drops_below_the_median():
    values = [float(i) for i in range(1, 16)]    # 15 samples
    t = tail(values)
    assert t["value"] == median(values) == 8.0
    assert t["percentile"] == pytest.approx(100 * 8 / 15)
    assert t["beyond"] == 7                      # fewer than ten exist


def test_tail_of_two_samples_is_not_below_their_median():
    t = tail([7.0, 6.0])
    assert t["value"] == 7.0 >= median([7.0, 6.0])
    assert t["beyond"] == 0


def test_tail_at_twenty_samples_stays_at_or_above_the_median():
    values = [float(i) for i in range(1, 21)]
    t = tail(values)
    assert t["value"] >= median(values)
    assert t["value"] == 11.0 and t["beyond"] == 9


def test_tail_of_one_sample_is_that_sample():
    assert tail([2.5]) == {"value": 2.5, "percentile": 100.0, "beyond": 0,
                           "samples": 1}


def test_tail_with_ties():
    values = [1.0] * 30 + [5.0] * 10
    assert tail(values)["value"] == 1.0


def test_empty_samples_are_an_error():
    with pytest.raises(ValueError):
        tail([])
    with pytest.raises(ValueError):
        median([])
