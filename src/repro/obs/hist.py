"""Streaming log-bucket histograms: fixed bounds, mergeable, deterministic.

A :class:`Histogram` summarises a stream of non-negative observations
(span durations, chunk bytes, queue waits, job latencies) without storing
them.  Buckets sit on a **fixed power-of-two grid** shared by every
histogram in the process: observation ``v`` lands in the bucket whose
upper bound is the smallest ``2**i`` with ``v <= 2**i``, with exponents
clamped to ``[MIN_EXP, MAX_EXP]``.  Because the grid never depends on the
data:

* two histograms of the same name :meth:`merge` by adding bucket counts;
* the export is deterministic - a run that observes the same values in
  any order serialises byte-identically.

Observations at or below zero land in the lowest bucket (bound
``2**MIN_EXP``); values beyond the top of the grid land in the highest.
Counts, sum, min and max are tracked exactly; only the distribution is
quantised.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Mapping

#: Bucket-exponent clamp: bounds span 2^-30 (~1e-9, nanosecond-scale
#: durations) to 2^40 (~1e12, terabyte-scale byte counts).
MIN_EXP = -30
MAX_EXP = 40


def bucket_exponent(value: float) -> int:
    """Grid exponent ``i`` of the smallest bound ``2**i >= value`` (clamped)."""
    if value <= 2.0**MIN_EXP:
        return MIN_EXP
    if value > 2.0**MAX_EXP:
        return MAX_EXP
    # frexp is exact: value = m * 2**e with 0.5 <= m < 1, so the smallest
    # bound at or above value is 2**(e-1) exactly when m == 0.5 (a power
    # of two) and 2**e otherwise - no log2 rounding at the boundaries.
    mantissa, exponent = math.frexp(float(value))
    bound = exponent - 1 if mantissa == 0.5 else exponent
    return max(MIN_EXP, min(MAX_EXP, bound))


class Histogram:
    """One named streaming histogram on the fixed log-bucket grid.

    Args:
        name: Metric name (e.g. ``"job_wait_seconds"``).
        labels: Optional fixed label set distinguishing series of the same
            name (e.g. ``stage="compute"``).
    """

    __slots__ = ("name", "labels", "_lock", "_buckets", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, labels: Mapping[str, str] | None = None) -> None:
        self.name = name
        self.labels: tuple[tuple[str, str], ...] = tuple(
            sorted((labels or {}).items())
        )
        self._lock = threading.Lock()
        self._buckets: dict[int, int] = {}
        self._count = 0
        self._sum = 0.0
        self._min: float | None = None
        self._max: float | None = None

    # -- recording -----------------------------------------------------------

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        exponent = bucket_exponent(value)
        with self._lock:
            self._buckets[exponent] = self._buckets.get(exponent, 0) + 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's counts into this one (same grid always)."""
        with other._lock:
            buckets = dict(other._buckets)
            count, total = other._count, other._sum
            low, high = other._min, other._max
        with self._lock:
            for exponent, bucket_count in buckets.items():
                self._buckets[exponent] = self._buckets.get(exponent, 0) + bucket_count
            self._count += count
            self._sum += total
            if low is not None and (self._min is None or low < self._min):
                self._min = low
            if high is not None and (self._max is None or high > self._max):
                self._max = high

    # -- reading -------------------------------------------------------------

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def snapshot(self) -> dict[str, Any]:
        """Deterministic JSON-safe summary (bounds stringified, sorted)."""
        with self._lock:
            buckets = dict(sorted(self._buckets.items()))
            payload: dict[str, Any] = {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "buckets": {repr(2.0**exp): n for exp, n in buckets.items()},
            }
        return payload

    def key(self) -> str:
        """Canonical series key: ``name`` or ``name{k=v,...}``."""
        if not self.labels:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"{self.name}{{{inner}}}"
