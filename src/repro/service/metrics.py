"""Metrics registry for the batch service.

The clocks (:class:`WallClock` / :class:`LogicalClock`) moved to
:mod:`repro.obs.clock` when the tracer started sharing them; they are
re-exported here unchanged for existing imports.

The registry is backed by a process-wide
:class:`~repro.obs.counters.CounterRegistry` - the same registry a
:class:`~repro.obs.Tracer` counts into when the service is traced - so
scheduling counters (submissions, completions, retries, ...) and
simulator-level run stats (chunk updates pruned, bytes moved, kernel
invocations) land in one export.  :meth:`MetricsRegistry.absorb_result`
folds a finished job's run stats in; before it existed those numbers were
dropped on job completion.  ``to_json`` serializes with sorted keys and
fixed separators so deterministic runs diff clean.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.clock import LogicalClock, WallClock
from repro.obs.counters import CounterRegistry
from repro.service.job import Job, JobResult

__all__ = ["LogicalClock", "MetricsRegistry", "WallClock"]


class MetricsRegistry:
    """Counters, gauges and per-job records for one service run.

    Args:
        counters: Backing registry (shared with the service's tracer when
            one is attached; a private one otherwise).

    Attributes:
        counters: The backing :class:`CounterRegistry`.
        max_queue_depth: Largest PENDING-queue length observed at any
            dispatch pass.
        retry_backoff_seconds: Modelled backoff charged by the recovery
            policy across all job retries (never slept, only accounted).
        job_records: One summary dict per terminal job, in the order
            the jobs reached their terminal state.
    """

    def __init__(self, counters: CounterRegistry | None = None) -> None:
        self.counters = counters if counters is not None else CounterRegistry()
        self.max_queue_depth = 0
        self.retry_backoff_seconds = 0.0
        self.job_records: list[dict[str, Any]] = []
        self._absorbed: set[str] = set()

    def count(self, name: str, increment: int = 1) -> None:
        self.counters.count(name, increment)

    def record_heartbeat(self) -> None:
        """Count one worker heartbeat (wired to the job's token ``on_beat``)."""
        self.counters.count("watchdog.heartbeats")

    def observe_queue_depth(self, depth: int) -> None:
        self.max_queue_depth = max(self.max_queue_depth, depth)

    def charge_backoff(self, seconds: float) -> None:
        self.retry_backoff_seconds += seconds

    def absorb_result(self, result: JobResult, job_id: str | None = None) -> None:
        """Fold a freshly computed job's simulator-level stats into the export.

        Called on fresh completions only - a cache hit re-serves an old
        payload without re-running the simulator, so absorbing it again
        would double-count.  When ``job_id`` is given the fold is
        idempotent per job: a journal replay (or any double call) that
        re-delivers a completion is absorbed at most once.
        """
        if job_id is not None:
            if job_id in self._absorbed:
                return
            self._absorbed.add(job_id)
        self.counters.merge({
            name: value
            for name, value in (
                ("sim.chunk_updates_total", result.chunk_updates_total),
                ("sim.chunk_updates_skipped", result.chunk_updates_skipped),
                ("sim.transfers", result.transfers),
                ("sim.retries", result.retries),
                ("sim.faults", result.faults),
            )
            if value
        })

    def record_job(self, job: Job) -> None:
        """Append the terminal summary of ``job``."""
        self.job_records.append({
            "id": job.job_id,
            "name": job.spec.display_name,
            "state": job.state.value,
            "fingerprint": job.fingerprint,
            "priority": job.spec.priority,
            "attempts": job.attempts,
            "cache_hit": job.cache_hit,
            "footprint_bytes": job.footprint_bytes,
            "estimated_seconds": job.estimated_seconds,
            "wait_time": job.wait_time,
            "run_time": job.run_time,
            "error": job.error,
        })

    def snapshot(
        self,
        *,
        cache: dict[str, Any] | None = None,
        config: dict[str, Any] | None = None,
        supervision: dict[str, Any] | None = None,
    ) -> dict[str, Any]:
        """Assemble the full export dict."""
        return {
            "config": config or {},
            "counters": self.counters.snapshot(),
            "max_queue_depth": self.max_queue_depth,
            "retry_backoff_seconds": self.retry_backoff_seconds,
            "cache": cache or {},
            "supervision": supervision or {},
            "jobs": self.job_records,
        }

    @staticmethod
    def to_json(snapshot: dict[str, Any]) -> str:
        """Canonical JSON: sorted keys, fixed separators, trailing newline."""
        return json.dumps(snapshot, sort_keys=True, separators=(",", ": "), indent=1) + "\n"
