"""The pure-Python normal quantile against SciPy, its reference.

``repro.harness.statistics.ndtri`` ports Cephes ``ndtri``, which is
what ``scipy.special.ndtri`` and ``scipy.stats.norm.ppf`` compute.
Interval bounds land in campaign summaries and the service's job
results, so the port must agree to the last bit, not to a tolerance.
"""

import math
import struct

import pytest
from hypothesis import given, strategies as st

from repro.harness.statistics import ndtri, required_trials, wilson_interval

special = pytest.importorskip("scipy.special")
stats = pytest.importorskip("scipy.stats")


def _bits(x):
    return struct.pack("<d", x)


def _assert_same(got, want, arg):
    if math.isnan(want):
        assert math.isnan(got), arg
    else:
        assert _bits(got) == _bits(want), (arg, got, want)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_ndtri_bit_identical_to_scipy(y):
    _assert_same(ndtri(y), float(special.ndtri(y)), y)


EDGES = (0.0, 1.0, 5e-324, 1e-300, 0.5,
         math.exp(-2), 1 - math.exp(-2), math.exp(-32))


@pytest.mark.parametrize("edge", EDGES)
def test_ndtri_edges_and_neighbours(edge):
    for y in (math.nextafter(edge, -math.inf), edge,
              math.nextafter(edge, math.inf)):
        _assert_same(ndtri(y), float(special.ndtri(y)), y)


@pytest.mark.parametrize("y", (-0.1, 1.1, math.nan))
def test_ndtri_nan_outside_the_domain(y):
    assert math.isnan(float(special.ndtri(y)))
    assert math.isnan(ndtri(y))


def _scipy_wilson(successes, trials, confidence):
    """The Wilson interval as computed with ``scipy.stats.norm.ppf``."""
    z = float(stats.norm.ppf(0.5 + confidence / 2))
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        p * (1 - p) / trials + z * z / (4 * trials * trials))
    low = max(0.0, centre - margin)
    high = min(1.0, centre + margin)
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    return min(low, p), max(high, p)


CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.975, 0.99, 0.999, 0.999999)


@pytest.mark.parametrize("confidence", CONFIDENCES)
def test_wilson_interval_matches_scipy_formula(confidence):
    for trials in (1, 2, 3, 10, 37, 100, 1000, 12345):
        for successes in sorted({0, 1, trials // 3, trials - 1, trials}):
            iv = wilson_interval(successes, trials, confidence)
            low, high = _scipy_wilson(successes, trials, confidence)
            arg = (successes, trials, confidence)
            _assert_same(iv.low, low, arg)
            _assert_same(iv.high, high, arg)


@pytest.mark.parametrize("confidence", CONFIDENCES)
def test_required_trials_matches_scipy_formula(confidence):
    z = float(stats.norm.ppf(0.5 + confidence / 2))
    for p in (2 ** -16, 1e-4, 0.01, 0.3, 0.5, 0.99):
        for rel in (0.01, 0.1, 0.5):
            want = math.ceil(z * z * (1 - p) / (p * rel ** 2))
            assert required_trials(p, rel, confidence) == want
