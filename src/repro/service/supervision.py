"""Watchdog supervision for the batch service.

The :class:`Supervisor` is a daemon thread watching every RUNNING job's
:class:`~repro.reliability.cancellation.CancellationToken`.  Workers
heartbeat the token once per gate; the supervisor reaps a job whose
deadline has passed or whose heartbeat has gone stale (a stalled worker),
by *cancelling the token* - reaping is cooperative, the worker raises
:class:`~repro.errors.JobCancelled` at its next poll and the coordinator
routes the failure through the normal ``FAILED -> PENDING`` retry edge
with backoff.

The supervisor never mutates job state itself - the coordinator stays
the single writer; the supervisor only flips tokens.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ServiceError
from repro.reliability.cancellation import CancellationToken

#: Cancellation kinds the watchdog uses (vs. ``user`` / ``shutdown``).
REAP_KINDS = ("deadline", "stall")


@dataclass(frozen=True)
class SupervisionConfig:
    """Watchdog tuning.

    Attributes:
        enabled: Master switch (``serve-batch --no-supervision``).
        poll_interval_seconds: Supervisor scan period.
        stall_timeout_seconds: Heartbeat staleness that counts as a hang.
    """

    enabled: bool = True
    poll_interval_seconds: float = 0.05
    stall_timeout_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.poll_interval_seconds <= 0:
            raise ServiceError(
                f"poll_interval_seconds must be positive, "
                f"got {self.poll_interval_seconds}"
            )
        if self.stall_timeout_seconds <= 0:
            raise ServiceError(
                f"stall_timeout_seconds must be positive, "
                f"got {self.stall_timeout_seconds}"
            )


@dataclass
class RunningEntry:
    """One supervised RUNNING job."""

    job_id: str
    token: CancellationToken
    deadline_at: float | None  # monotonic instant, None = no deadline
    started_at: float = field(default_factory=time.monotonic)


class Supervisor:
    """Daemon thread reaping hung and deadline-exceeded workers.

    Args:
        config: Watchdog tuning.
        on_reap: Callback ``(job_id, kind)`` with ``kind`` in
            :data:`REAP_KINDS`, invoked once per reaped job (the service
            counts ``watchdog.reaps`` / ``deadline.kills`` /
            ``stall.kills`` here).
    """

    def __init__(
        self,
        config: SupervisionConfig | None = None,
        on_reap: Callable[[str, str], None] | None = None,
    ) -> None:
        self.config = config if config is not None else SupervisionConfig()
        self._on_reap = on_reap
        self._entries: dict[str, RunningEntry] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.reaps = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="job-supervisor", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "Supervisor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- registration (coordinator thread) ---------------------------------

    def watch(
        self,
        job_id: str,
        token: CancellationToken,
        deadline_seconds: float | None = None,
    ) -> None:
        """Begin supervising one RUNNING job."""
        now = time.monotonic()
        entry = RunningEntry(
            job_id=job_id,
            token=token,
            deadline_at=now + deadline_seconds if deadline_seconds else None,
            started_at=now,
        )
        with self._lock:
            self._entries[job_id] = entry

    def release(self, job_id: str) -> None:
        """Stop supervising a job (it completed, failed, or was reaped)."""
        with self._lock:
            self._entries.pop(job_id, None)

    def watched(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- scanning ----------------------------------------------------------

    def scan(self, now: float | None = None) -> int:
        """One reap pass; returns jobs reaped.  Public for tests."""
        now = time.monotonic() if now is None else now
        with self._lock:
            entries = list(self._entries.values())
        reaped = 0
        for entry in entries:
            if entry.deadline_at is not None and now >= entry.deadline_at:
                kind = "deadline"
                reason = (
                    f"deadline exceeded: attempt ran past its "
                    f"{entry.deadline_at - entry.started_at:.3f}s budget"
                )
            elif now - entry.token.last_beat >= self.config.stall_timeout_seconds:
                kind = "stall"
                reason = (
                    f"worker stalled: no heartbeat for "
                    f"{now - entry.token.last_beat:.3f}s"
                )
            else:
                continue
            if entry.token.cancel(reason, kind=kind):
                # First cancel wins: count each reap exactly once, and
                # stop rescanning a job that is already on its way out.
                reaped += 1
                self.reaps += 1
                if self._on_reap is not None:
                    self._on_reap(entry.job_id, kind)
            self.release(entry.job_id)
        return reaped

    def _loop(self) -> None:
        while not self._stop.wait(self.config.poll_interval_seconds):
            self.scan()
