"""Statistical helpers for the Monte-Carlo experiments.

The hazard model, ROEC sampling and CRC-aliasing measurements all
estimate probabilities by sampling; results should carry intervals, not
bare point estimates. Wilson intervals for proportions are well-behaved
at the small counts our rare-event estimates produce, and
:func:`required_trials` plans how many samples a target precision needs.

Both need the standard normal quantile. :func:`ndtri` computes it with
the Cephes ``ndtri`` algorithm, the one behind ``scipy.special.ndtri``
and ``scipy.stats.norm.ppf``, ported operation for operation so that it
returns the same double bit for bit. The interval bounds are written
into campaign summaries and the service's job results, so a one-ulp
difference in ``z`` changes their bytes; the stdlib's
``statistics.NormalDist.inv_cdf`` uses another algorithm and differs in
the last place for most confidences. The port keeps this module, and so
the runtime package, free of third-party imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

# Cephes ndtri coefficients, highest degree first.  Q* omit their
# leading 1.0, which p1evl supplies.
# exp(-2) < y < 1 - exp(-2): with w = y - 0.5,
# x = (w + w^3 P0(w^2)/Q0(w^2)) * sqrt(2pi)
_P0 = (
    -5.99633501014107895267E1,
    9.80010754185999661536E1,
    -5.66762857469070293439E1,
    1.39312609387279679503E1,
    -1.23916583867381258016E0,
)
_Q0 = (
    1.95448858338141759834E0,
    4.67627912898881538453E0,
    8.63602421390890590575E1,
    -2.25462687854119370527E2,
    2.00260212380060660359E2,
    -8.20372256168333339912E1,
    1.59056225126211695515E1,
    -1.18331621121330003142E0,
)
# z = sqrt(-2 log y) in [2, 8): y down to exp(-32)
_P1 = (
    4.05544892305962419923E0,
    3.15251094599893866154E1,
    5.71628192246421288162E1,
    4.40805073893200834700E1,
    1.46849561928858024014E1,
    2.18663306850790267539E0,
    -1.40256079171354495875E-1,
    -3.50424626827848203418E-2,
    -8.57456785154685413611E-4,
)
_Q1 = (
    1.57799883256466749731E1,
    4.53907635128879210584E1,
    4.13172038254672030440E1,
    1.50425385692907503408E1,
    2.50464946208309415979E0,
    -1.42182922854787788574E-1,
    -3.80806407691578277194E-2,
    -9.33259480895457427372E-4,
)
# z >= 8: y below exp(-32)
_P2 = (
    3.23774891776946035970E0,
    6.91522889068984211695E0,
    3.93881025292474443415E0,
    1.33303460815807542389E0,
    2.01485389549179081538E-1,
    1.23716634817820021358E-2,
    3.01581553508235416007E-4,
    2.65806974686737550832E-6,
    6.23974539184983293730E-9,
)
_Q2 = (
    6.02427039364742014255E0,
    3.67983563856160859403E0,
    1.37702099489081330271E0,
    2.16236993594496635890E-1,
    1.34204006088543189037E-2,
    3.28014464682127739104E-4,
    2.89247864745380683936E-6,
    6.79019408009981274425E-9,
)
_S2PI = 2.50662827463100050242E0  # sqrt(2pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)


def _polevl(x: float, coef: Sequence[float]) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x: float, coef: Sequence[float]) -> float:
    ans = x + coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def ndtri(y0: float) -> float:
    """Standard normal quantile: the ``x`` with ``Phi(x) == y0``.

    Bit-identical to ``scipy.special.ndtri``: ``-inf``/``inf`` at 0/1,
    ``nan`` outside [0, 1] and for ``nan``.
    """
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    negate = True
    y = y0
    if y > 1.0 - _EXP_M2:
        y = 1.0 - y
        negate = False
    if y > _EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))
        return x * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    x = x0 - x1
    return -x if negate else x


@dataclass(frozen=True)
class Interval:
    """A point estimate with a confidence interval."""

    estimate: float
    low: float
    high: float
    confidence: float = 0.95

    def __contains__(self, value: float) -> bool:
        return self.low <= value <= self.high

    @property
    def width(self) -> float:
        return self.high - self.low


def wilson_interval(successes: int, trials: int,
                    confidence: float = 0.95) -> Interval:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    z = ndtri(0.5 + confidence / 2)
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        p * (1 - p) / trials + z * z / (4 * trials * trials))
    low = max(0.0, centre - margin)
    high = min(1.0, centre + margin)
    # snap the degenerate edges exactly (floating-point residue would
    # otherwise leave low=1e-18 at 0 successes, or high<p at all-successes)
    if successes == 0:
        low = 0.0
    if successes == trials:
        high = 1.0
    low = min(low, p)
    high = max(high, p)
    return Interval(estimate=p, low=low, high=high, confidence=confidence)


def required_trials(p: float, relative_precision: float = 0.1,
                    confidence: float = 0.95) -> int:
    """Trials needed to estimate a proportion ``p`` to the given relative
    precision — the planning tool for rare-event Monte Carlo (e.g. CRC
    aliasing at 2^-16 needs ~25M trials for 10%)."""
    if not 0 < p < 1:
        raise ValueError("p must be in (0, 1)")
    if relative_precision <= 0:
        raise ValueError("precision must be positive")
    z = ndtri(0.5 + confidence / 2)
    return math.ceil(z * z * (1 - p) / (p * relative_precision ** 2))
