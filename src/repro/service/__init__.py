"""Batch simulation job service.

Turns the blocking :class:`~repro.core.QGpuSimulator` into a servable
system: a job model with a validated lifecycle state machine, pluggable
scheduling policies (FIFO / priority / shortest-estimated-job-first), a
worker pool, a content-addressed result cache with LRU byte-budget
eviction and CRC-verified entries, a metrics registry, and a crash-safe
JSONL job journal for cross-process ``status``/``cancel``.

The service recovers from failure: per-job deadlines with cooperative
cancellation, a watchdog :class:`~repro.service.supervision.Supervisor`
reaping hung workers, retries with modelled backoff, torn-tail-tolerant
journal replay with :meth:`JobStore.compact`, and
:meth:`BatchService.recover` for end-to-end restart recovery.  A job
whose footprint exceeds the machine's host memory is rejected at
``submit``.

See ``docs/service.md`` for the architecture and worked examples, and the
``repro serve-batch`` / ``submit`` / ``status`` / ``cancel`` / ``compact``
CLI commands.
"""

from repro.service.cache import ResultCache
from repro.service.job import (
    ALLOWED_TRANSITIONS,
    Job,
    JobResult,
    JobSpec,
    JobState,
    cache_key,
)
from repro.service.metrics import LogicalClock, MetricsRegistry, WallClock
from repro.service.scheduling import (
    FifoPolicy,
    POLICIES,
    PriorityPolicy,
    SchedulingPolicy,
    SjfPolicy,
    get_policy,
)
from repro.service.service import (
    BatchService,
    DEFAULT_CACHE_BUDGET,
    SERVICE_VERSIONS,
    execute_job,
    load_manifest,
)
from repro.service.store import FSYNC_POLICIES, JobStore
from repro.service.supervision import SupervisionConfig, Supervisor

__all__ = [
    "ALLOWED_TRANSITIONS",
    "BatchService",
    "DEFAULT_CACHE_BUDGET",
    "FSYNC_POLICIES",
    "FifoPolicy",
    "Job",
    "JobResult",
    "JobSpec",
    "JobState",
    "JobStore",
    "LogicalClock",
    "MetricsRegistry",
    "POLICIES",
    "PriorityPolicy",
    "ResultCache",
    "SERVICE_VERSIONS",
    "SchedulingPolicy",
    "SjfPolicy",
    "SupervisionConfig",
    "Supervisor",
    "WallClock",
    "cache_key",
    "execute_job",
    "get_policy",
    "load_manifest",
]
