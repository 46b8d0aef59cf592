"""Process-wide counter registry for simulator, engine, and service stats.

One :class:`CounterRegistry` holds every named count of a run - chunks
touched and pruned, bytes moved raw vs. on the wire, kernel invocations by
kind, cache hits, worker-pool tasks, retries and faults - wherever in the
stack it was incremented.  The service's
:class:`~repro.service.metrics.MetricsRegistry` is backed by one, so
simulator-level run stats land in the same export as the scheduling
counters instead of being dropped when a job completes.

Counters are integers or floats; increments are lock-protected so worker
threads can count concurrently.  :meth:`snapshot` returns a sorted dict
and :meth:`to_json` a canonical serialization (sorted keys, fixed
separators) so deterministic runs diff clean.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Iterable, Mapping


class CounterRegistry:
    """Named monotonic counters, safe to increment from any thread."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._values: dict[str, int | float] = {}

    def count(self, name: str, increment: int | float = 1) -> None:
        """Add ``increment`` (default 1) to counter ``name``."""
        with self._lock:
            self._values[name] = self._values.get(name, 0) + increment

    # ``add`` reads better for byte/seconds accumulators.
    add = count

    def get(self, name: str, default: int | float = 0) -> int | float:
        with self._lock:
            return self._values.get(name, default)

    def merge(self, other: "CounterRegistry | Mapping[str, int | float]") -> None:
        """Fold another registry (or plain mapping) into this one."""
        items: Iterable[tuple[str, int | float]]
        if isinstance(other, CounterRegistry):
            items = list(other.snapshot().items())
        else:
            items = list(other.items())
        with self._lock:
            for name, value in items:
                self._values[name] = self._values.get(name, 0) + value

    def clear(self) -> None:
        with self._lock:
            self._values.clear()

    def snapshot(self) -> dict[str, int | float]:
        """Sorted copy of every counter."""
        with self._lock:
            return dict(sorted(self._values.items()))

    def to_json(self, extra: Mapping[str, Any] | None = None) -> str:
        """Canonical JSON export: ``{"counters": {...}, **extra}``."""
        payload: dict[str, Any] = {"counters": self.snapshot()}
        if extra:
            payload.update(extra)
        return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
