"""The two clocks every observability reading is taken against.

Both implement the same one-method interface (:meth:`tick`):

* :class:`WallClock` - ``time.monotonic`` seconds, zeroed at construction;
  right for real throughput and latency numbers.
* :class:`LogicalClock` - an integer that advances by one on every observed
  event.  Under a serial schedule (``workers=1``) every event happens in a
  deterministic order, so every recorded timestamp and duration - and
  therefore every exported trace and metrics file - is byte-identical
  across runs.  This is the ``--workers 1 --seed N`` reproducibility mode.

These classes used to live in :mod:`repro.service.metrics`; they moved
here when the tracer started sharing them, and the service re-exports
them unchanged.
"""

from __future__ import annotations

import threading
import time


class WallClock:
    """Monotonic wall-clock seconds, zeroed at construction."""

    deterministic = False

    def __init__(self) -> None:
        self._start = time.monotonic()

    def tick(self) -> float:
        """Advance (a no-op for wall time) and return the current reading."""
        return time.monotonic() - self._start


class LogicalClock:
    """Event counter: each observed event is one tick.

    Ticking is lock-protected so traced worker threads cannot tear the
    counter; determinism still requires a serial schedule (the lock makes
    readings unique, not ordered).
    """

    deterministic = True

    def __init__(self) -> None:
        self._now = 0
        self._lock = threading.Lock()

    def tick(self) -> int:
        """Advance by one event and return the new reading."""
        with self._lock:
            self._now += 1
            return self._now
