"""Tests for the statistics helpers."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness.statistics import (
    ndtri, required_trials, wilson_interval,
)


def test_wilson_contains_truth_typically():
    """Coverage check: ~95% of intervals from p=0.3 samples contain 0.3."""
    rng = random.Random(7)
    p, n, covered, reps = 0.3, 200, 0, 200
    for _ in range(reps):
        successes = sum(rng.random() < p for _ in range(n))
        if p in wilson_interval(successes, n):
            covered += 1
    assert covered >= 0.88 * reps  # loose lower bound on 95% coverage


def test_wilson_zero_and_all():
    iv0 = wilson_interval(0, 100)
    assert iv0.low == 0.0 and iv0.high > 0
    iv1 = wilson_interval(100, 100)
    assert iv1.high == 1.0 and iv1.low < 1.0


def test_wilson_validation():
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    with pytest.raises(ValueError):
        wilson_interval(5, 3)


@given(st.integers(min_value=0, max_value=500),
       st.integers(min_value=1, max_value=500))
def test_wilson_bounds_property(successes, trials):
    if successes > trials:
        successes = trials
    iv = wilson_interval(successes, trials)
    assert 0.0 <= iv.low <= iv.estimate <= iv.high <= 1.0


def test_required_trials_rare_event():
    # CRC-16 aliasing at 2^-16: tens of millions of trials for 10% rel.
    n = required_trials(2 ** -16, relative_precision=0.10)
    assert 2e7 < n < 5e7


def test_required_trials_monotone():
    assert required_trials(0.5) < required_trials(0.01)
    assert required_trials(0.01, 0.5) < required_trials(0.01, 0.1)


def test_required_trials_validation():
    with pytest.raises(ValueError):
        required_trials(0.0)
    with pytest.raises(ValueError):
        required_trials(0.5, -1)


def test_ndtri_known_values_and_limits():
    assert ndtri(0.5) == 0.0
    assert ndtri(0.975) == 1.959963984540054
    assert ndtri(0.025) == -1.9599639845400545
    assert ndtri(0.0) == -math.inf
    assert ndtri(1.0) == math.inf
    for y in (-0.1, 1.1, math.nan):
        assert math.isnan(ndtri(y))
