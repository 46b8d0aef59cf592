"""Sample statistics used by the benchmark and by ``compare.py``.

A timing is reported as a median with min/max and the sample count.  A
percentile is *resolved* only when at least ten samples lie beyond it
(``TAIL_SAMPLES``); an unresolved percentile is still printed, flagged, so a
reader does not mistake the slowest of a dozen requests for a tail.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: Samples that must lie beyond a percentile before it counts as resolved.
TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q`` % of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    return float(ordered[max(1, math.ceil(len(ordered) * q / 100)) - 1])


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the nearest-rank
    ``q``-th percentile."""
    return count - max(1, math.ceil(count * q / 100))


def summary(values: Sequence[float]) -> dict[str, float]:
    return {
        "median": median(values),
        "min": float(min(values)),
        "max": float(max(values)),
        "n": len(values),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median - the steadiness figure the benchmark's bounds are judged by."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median(values)
