"""Order statistics used for every timing the benchmark reports."""

from __future__ import annotations

import math
from typing import Dict, Sequence

#: samples a tail percentile must leave strictly above it
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def tail(values: Sequence[float], beyond: int = TAIL_BEYOND) -> Dict:
    """The highest percentile with at least ``beyond`` samples above it.

    Nearest-rank: with ``n`` sorted samples, the value at rank ``k``
    (1-based) has ``n - k`` samples beyond it, so the highest rank that
    leaves ``beyond`` of them is ``k = n - beyond`` and its percentile is
    ``100 * k / n``. A tail below the median says nothing about the
    tail, so the rank never drops below ``ceil((n + 1) / 2)``, the lowest
    rank whose value is at least the median: with fewer than
    ``2 * beyond + 1`` samples the tail sits there, and ``beyond`` in the
    result records how many samples really lie above it.
    """
    if not values:
        raise ValueError("tail of no samples")
    s = sorted(values)
    n = len(s)
    k = max(n - beyond, math.ceil((n + 1) / 2))
    return {"value": s[k - 1], "percentile": 100.0 * k / n,
            "beyond": n - k, "samples": n}
