"""The batch simulation service: scheduling + workers + cache + journal.

:class:`BatchService` turns the blocking :class:`~repro.core.QGpuSimulator`
into a servable system.  Jobs are submitted as declarative
:class:`~repro.service.job.JobSpec` records, priced up-front (circuit
fingerprint, host footprint from the capacity model, modelled runtime from
the DES cost model), and drained by :meth:`BatchService.run_until_complete`:

1. a **dispatch pass** orders the PENDING queue with the scheduling policy,
   serves duplicates straight from the content-addressed result cache,
   and hands the rest to the thread pool as worker slots free up;
2. **completions** are processed in deterministic (submission) order:
   successes populate the cache and journal, failures consult the
   reliability policy for the ``FAILED -> PENDING`` retry edge.

All job-state mutation happens on the coordinator thread - workers are
pure functions from spec to result payload - so the service needs no
locks.  With ``workers=1`` the whole schedule is deterministic and the
logical clock makes the exported metrics byte-identical across runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from pathlib import Path
from typing import Any

from repro.analysis.capacity import host_footprint_bytes
from repro.core.simulator import QGpuSimulator
from repro.core.versions import (
    QGPU_BASIS_TRACKING,
    QGPU_DIAGONAL_AWARE,
    VERSIONS_BY_NAME,
    VersionConfig,
)
from repro.errors import (
    AdmissionError,
    FaultInjectionError,
    JobCancelled,
    JobNotFound,
    ReproError,
    ServiceError,
    SimulationError,
)
from repro.hardware.specs import MachineSpec, PAPER_MACHINE
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.reliability.cancellation import USER_KINDS, CancellationToken
from repro.reliability.faults import FaultPlan
from repro.reliability.policy import DEFAULT_POLICY, RecoveryPolicy
from repro.service.cache import ResultCache
from repro.service.job import Job, JobResult, JobSpec, JobState
from repro.service.metrics import LogicalClock, MetricsRegistry, WallClock
from repro.service.scheduling import SchedulingPolicy, get_policy
from repro.service.store import JobStore
from repro.service.supervision import SupervisionConfig, Supervisor
from repro.statevector.parallel import resolve_workers

#: Default result-cache budget (bytes of canonical-JSON payloads).
DEFAULT_CACHE_BUDGET = 16 * 1024 * 1024

#: Versions servable by name: the paper's six plus the planner extensions.
SERVICE_VERSIONS: dict[str, VersionConfig] = {
    **VERSIONS_BY_NAME,
    QGPU_DIAGONAL_AWARE.name: QGPU_DIAGONAL_AWARE,
    QGPU_BASIS_TRACKING.name: QGPU_BASIS_TRACKING,
}


def execute_job(
    spec: JobSpec,
    machine: MachineSpec,
    sim_recovery: RecoveryPolicy,
    sim_workers: int | str | None = 1,
    tracer: Tracer | None = None,
    job_id: str | None = None,
    parent_span: int | None = None,
    cancel: CancellationToken | None = None,
    chaos: FaultPlan | None = None,
    job_seq: int = 0,
    attempt: int = 0,
) -> JobResult:
    """Run one job to completion (worker-thread body).

    Pure with respect to service state: reads only its arguments, mutates
    no job bookkeeping, and returns the result payload; any
    :class:`ReproError` propagates to the coordinator as the job's
    failure.  ``sim_workers`` is the functional engine's chunk-worker knob
    (see :class:`~repro.core.QGpuSimulator`); the default ``1`` keeps
    every job on the bit-exact serial path.  When a ``tracer`` is given
    the whole job becomes one span on this worker thread's lane (parented
    to the coordinator's ``serve`` span via ``parent_span``), with the
    simulator's span tree nested inside.

    ``cancel`` is this attempt's cancellation token: the simulator's gate
    loop polls it (heartbeat + cooperative kill).  ``chaos`` is the
    *service-level* fault plan - distinct from the spec's in-run plan -
    consulted once per attempt for injected worker crashes and stalls,
    keyed deterministically on ``(job_seq, attempt)``.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    if chaos is not None and chaos.worker_crash(job_seq, attempt):
        raise FaultInjectionError(
            f"chaos: worker crash injected (job seq {job_seq}, attempt {attempt})"
        )
    if chaos is not None and chaos.worker_stall(job_seq, attempt):
        # Hang without heartbeating: the watchdog must reap us.  The loop
        # only *reads* the token, so the heartbeat stays frozen at the
        # attempt's start and staleness accrues.
        while cancel is not None and not cancel.cancelled:
            time.sleep(0.002)
        if cancel is not None:
            cancel.raise_if_cancelled()
        raise FaultInjectionError(
            f"chaos: worker stall injected with no supervision "
            f"(job seq {job_seq}, attempt {attempt})"
        )
    circuit = spec.build_circuit()
    version = SERVICE_VERSIONS[spec.version]
    plan = FaultPlan.from_spec(spec.fault_plan) if spec.fault_plan else None
    simulator = QGpuSimulator(
        machine=machine,
        version=version,
        chunk_bits=spec.chunk_bits,
        fault_plan=plan,
        reliability_policy=sim_recovery,
        workers=sim_workers,
        tracer=tracer,
        backend=spec.backend,
        precision=spec.precision,
    )
    with tracer.span(
        f"job:{job_id or spec.display_name}", parent=parent_span, job=job_id
    ):
        outcome = simulator.run(circuit, cancel=cancel)
        if outcome.backend == "statevector":
            # The read-only view feeds the hash through the buffer
            # protocol: no copy of the state.
            state_sha256 = hashlib.sha256(outcome.amplitudes).hexdigest()
        else:
            # A digest over the native representation (a tableau has no
            # amplitude vector).
            state_sha256 = outcome.state.digest()
        counts: dict[str, int] = {}
        if spec.shots > 0:
            counts = {
                str(outcome_index): count
                for outcome_index, count in outcome.sample_counts(
                    spec.shots, seed=spec.seed
                ).items()
            }
    report = outcome.reliability
    return JobResult(
        counts=counts,
        state_sha256=state_sha256,
        pruned_fraction=outcome.pruned_fraction,
        num_qubits=circuit.num_qubits,
        chunk_updates_total=outcome.chunk_updates_total,
        chunk_updates_skipped=outcome.chunk_updates_skipped,
        transfers=report.transfers if report is not None else 0,
        retries=report.retries if report is not None else 0,
        faults=sum(report.faults.values()) if report is not None else 0,
        backend=outcome.backend,
        precision=outcome.precision,
        precision_fallback=outcome.precision_fallback,
    )


class BatchService:
    """Cached, journaled, multi-worker batch simulation service.

    Args:
        machine: Hardware model used for footprint and cost estimates and
            for the timed engine.
        policy: Scheduling policy instance or name (``fifo`` / ``priority``
            / ``sjf``).
        workers: Concurrent worker threads.  ``1`` selects deterministic
            mode: a logical event clock replaces wall time, so metrics are
            byte-identical across runs.
        cache_budget_bytes: Result-cache byte budget.
        recovery: Job-level retry policy: a failed job re-enters the queue
            while ``on_fault == "retry"`` and its attempts are below
            ``max_transfer_attempts``; each retry charges the policy's
            backoff to the metrics (modelled, never slept).
        sim_recovery: In-run reliability policy handed to the simulator
            (fault detection/recovery inside one attempt).
        sim_workers: Chunk-worker threads *inside* each simulation (the
            functional engine's ``workers`` knob).  Independent of
            ``workers``, which is the number of concurrent jobs; the
            default ``1`` keeps every job bit-deterministic.
        seed: Run seed recorded in the metrics and used as the default for
            specs that carry none.
        journal: Optional :class:`JobStore` (or path) receiving every job
            event for cross-process ``status``/``cancel``.
        tracer: Optional :class:`~repro.obs.Tracer`.  The service adopts
            the tracer's clock (so span timestamps and job timestamps
            share one timeline) and backs its metrics with the tracer's
            counters, merging per-job simulator stats into the same
            export; each job becomes a span on its worker thread's lane.
        supervision: Watchdog configuration (deadline and stall reaping
            by a daemon supervisor thread).  ``None`` uses the defaults
            (enabled); pass ``SupervisionConfig(enabled=False)`` to
            disable supervision entirely.
        chaos_plan: Service-level fault plan consulted for injected
            worker crashes, worker stalls and cache corruption: the seam
            the watchdog, retry and cache-CRC tests inject through,
            separate from each spec's in-run ``fault_plan``.
    """

    def __init__(
        self,
        *,
        machine: MachineSpec = PAPER_MACHINE,
        policy: SchedulingPolicy | str = "fifo",
        workers: int = 4,
        cache_budget_bytes: int = DEFAULT_CACHE_BUDGET,
        recovery: RecoveryPolicy = DEFAULT_POLICY,
        sim_recovery: RecoveryPolicy = DEFAULT_POLICY,
        sim_workers: int | str | None = 1,
        seed: int = 0,
        journal: JobStore | str | Path | None = None,
        tracer: Tracer | None = None,
        supervision: SupervisionConfig | None = None,
        chaos_plan: FaultPlan | None = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"need at least one worker, got {workers}")
        resolve_workers(sim_workers, 1)  # fail fast on a bad knob
        self.machine = machine
        self.policy = get_policy(policy) if isinstance(policy, str) else policy
        self.workers = workers
        self.deterministic = workers == 1
        self.cache = ResultCache(cache_budget_bytes)
        self.recovery = recovery
        self.sim_recovery = sim_recovery
        self.sim_workers = sim_workers
        self.seed = seed
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer is not NULL_TRACER:
            # One timeline: job timestamps and span timestamps come from
            # the same clock, and metrics count into the tracer's registry
            # so simulator stats and scheduling counters export together.
            self.clock = self.tracer.clock
            self.metrics = MetricsRegistry(counters=self.tracer.counters)
        else:
            self.clock = LogicalClock() if self.deterministic else WallClock()
            self.metrics = MetricsRegistry()
        self.journal = (
            journal if isinstance(journal, (JobStore, type(None))) else JobStore(journal)
        )
        self._jobs: dict[str, Job] = {}
        self._next_seq = self.journal.next_seq() if self.journal is not None else 1
        self._inflight: dict[str, str] = {}  # cache key -> running job id
        # Job id -> the spec its runs execute: the submitted spec with the
        # "auto" backend/precision the submit-time plan chose, so a run
        # never plans (or counts a selection) again.  Jobs adopted from a
        # journal run their submitted spec.
        self._run_specs: dict[str, JobSpec] = {}
        self.supervision = (
            supervision if supervision is not None else SupervisionConfig()
        )
        self.supervisor = Supervisor(self.supervision, on_reap=self._on_reap)
        self.chaos_plan = chaos_plan
        self._tokens: dict[str, CancellationToken] = {}  # job id -> RUNNING token
        self._cancel_lock = threading.Lock()  # cancel() vs. dispatch race
        self._cache_puts = 0  # chaos cache-corruption ordinal

    def _on_reap(self, job_id: str, kind: str) -> None:
        """Supervisor callback (supervisor thread): count one reap."""
        self.metrics.count("watchdog.reaps")
        self.metrics.count(f"{kind}.kills")  # deadline.kills / stall.kills

    # -- submission ----------------------------------------------------------

    def submit(self, spec: JobSpec | dict[str, Any]) -> Job:
        """Register a job, pricing it and vetting it against host memory.

        Raises:
            AdmissionError: If the job's estimated footprint exceeds the
                machine's host memory (it could never run).
            ServiceError: For malformed specs or unknown versions.
        """
        if isinstance(spec, dict):
            spec = JobSpec.from_dict(spec)
        if spec.version not in SERVICE_VERSIONS:
            raise ServiceError(
                f"unknown version {spec.version!r} "
                f"(choose from {sorted(SERVICE_VERSIONS)})"
            )
        if spec.fault_plan:
            if spec.backend != "statevector":
                raise ServiceError(
                    "fault injection requires backend='statevector' (the "
                    "transfer guards live in the dense engine)"
                )
            try:
                FaultPlan.from_spec(spec.fault_plan)
            except FaultInjectionError as error:
                raise ServiceError(f"bad fault_plan: {error}") from error
        circuit = spec.build_circuit()
        version = SERVICE_VERSIONS[spec.version]
        run_spec = spec
        dense = spec.backend == "statevector" and spec.precision == "double"
        if dense:
            # The pre-planner path, byte-for-byte: dense footprint from
            # the capacity model, runtime from the timed DES model.
            footprint = host_footprint_bytes(circuit.num_qubits)
        else:
            # Planner-routed jobs: the fit check and SJF price the *selected*
            # backend, not the dense engine the old service assumed.
            from repro.planner import PlannerConfig, plan as plan_circuit

            config = PlannerConfig(
                machine=self.machine,
                backend=spec.backend,
                precision=spec.precision,
            )
            if self.tracer.enabled:
                with self.tracer.span(
                    "plan", stage="plan", circuit=circuit.name
                ):
                    chosen = plan_circuit(circuit, config)
            else:
                chosen = plan_circuit(circuit, config)
            self.metrics.count(f"planner.selected.{chosen.backend}")
            footprint = float(chosen.estimated_bytes)
            estimated = chosen.estimated_seconds
            run_spec = dataclasses.replace(
                spec,
                backend=chosen.backend if spec.backend == "auto" else spec.backend,
                precision=(
                    chosen.precision if spec.precision == "auto" else spec.precision
                ),
            )
        if footprint > self.machine.host_memory_bytes:
            raise AdmissionError(
                f"job footprint {footprint:.0f} B exceeds the "
                f"{self.machine.host_memory_bytes} B of host memory on "
                f"{self.machine.name} - it can never be admitted"
            )
        if dense:
            try:
                estimated = QGpuSimulator(
                    machine=self.machine, version=version
                ).estimate_cost(circuit)
            except SimulationError:
                estimated = None
        seq = self._next_seq
        self._next_seq += 1
        job = Job(
            job_id=f"j{seq:04d}",
            seq=seq,
            spec=spec,
            fingerprint=circuit.fingerprint(),
            footprint_bytes=footprint,
            estimated_seconds=estimated,
            submitted_at=self.clock.tick(),
        )
        self._jobs[job.job_id] = job
        self._run_specs[job.job_id] = run_spec
        self.metrics.count("jobs_submitted")
        if self.journal is not None:
            self.journal.record_submit(job)
        return job

    def recover(self) -> list[Job]:
        """Full crash recovery from the journal; returns re-runnable jobs.

        Used by ``repro serve-batch --journal``.  Besides adopting the
        journal's PENDING jobs (submitted by another process), this:

        * repairs a torn journal tail (so subsequent appends are clean);
        * re-queues jobs journaled RUNNING at crash time - the attempt
          died with the process, so they take ``RUNNING -> FAILED ->
          PENDING`` (charging the attempt already journaled);
        * re-queues ADMITTED jobs via ``ADMITTED -> PENDING`` without
          charging an attempt (the crash landed between admission and
          dispatch);
        * re-queues FAILED jobs with retry budget left (the crash landed
          between the failure and the retry decision);
        * seeds the result cache from journaled SUCCEEDED results, so
          duplicate submissions after restart are served without
          recomputing (no duplicated side effects).

        Raises:
            ServiceError: If the service has no journal.
        """
        if self.journal is None:
            raise ServiceError("recover requires a journal")
        self.journal.repair_tail()
        self.metrics.count("recovery.replays")
        recovered: list[Job] = []
        for job in self.journal.load().values():
            if job.job_id in self._jobs:
                continue
            if job.state is JobState.SUCCEEDED and job.result is not None:
                if not self.cache.peek(job.cache_key):
                    self.cache.put(job.cache_key, job.result)
                    self.metrics.count("recovery.cache_seeded")
                continue
            if job.state is JobState.RUNNING:
                job.error = "recovered: service crashed while job was RUNNING"
                job.transition(JobState.FAILED, at=self.clock.tick())
                self._journal_transition(job, job.finished_at)
                self.journal.record_error(job, job.error)
                if (
                    self.recovery.on_fault != "retry"
                    or job.attempts >= self.recovery.max_transfer_attempts
                ):
                    self.metrics.count("jobs_failed")
                    self.metrics.record_job(job)
                    continue  # out of budget: stays FAILED
                job.transition(JobState.PENDING)
                self._journal_transition(job, None)
            elif job.state is JobState.ADMITTED:
                job.transition(JobState.PENDING)
                self._journal_transition(job, None)
            elif job.state is JobState.FAILED:
                if (
                    self.recovery.on_fault != "retry"
                    or job.attempts >= self.recovery.max_transfer_attempts
                ):
                    continue  # out of budget: stays FAILED
                job.transition(JobState.PENDING)
                self._journal_transition(job, None)
            elif job.state is not JobState.PENDING:
                continue  # CANCELLED (or other terminal): nothing to do
            self._jobs[job.job_id] = job
            self.metrics.count(
                "jobs_adopted" if job.attempts == 0 and job.error is None
                else "recovery.requeued"
            )
            recovered.append(job)
        return recovered

    def job(self, job_id: str) -> Job:
        """Look up a job by id.

        Raises:
            JobNotFound: If no such job was submitted here.
        """
        if job_id not in self._jobs:
            raise JobNotFound(f"no job {job_id!r} in this service")
        return self._jobs[job_id]

    @property
    def jobs(self) -> list[Job]:
        return sorted(self._jobs.values(), key=lambda job: job.seq)

    def cancel(self, job_id: str) -> Job:
        """Cancel a job.

        A PENDING or ADMITTED job is cancelled synchronously - it is
        guaranteed never to execute after this returns (the cancel lock
        closes the race against a concurrent dispatch pass).  A RUNNING
        job is cancelled *cooperatively*: its token is flipped, the
        worker stops at its next gate, and the job transitions to
        CANCELLED when the coordinator processes the completion.

        Raises:
            JobNotFound: Unknown id.
            ServiceError: If the job is already terminal.
        """
        job = self.job(job_id)
        with self._cancel_lock:
            if job.state in (JobState.PENDING, JobState.ADMITTED):
                job.transition(JobState.CANCELLED, at=self.clock.tick())
                self.metrics.count("jobs_cancelled")
                self.metrics.record_job(job)
                if self.journal is not None:
                    self.journal.record_transition(job, job.finished_at)
                return job
            if job.state is JobState.RUNNING:
                token = self._tokens.get(job_id)
                if token is not None:
                    token.cancel(f"job {job_id} cancelled by user", kind="user")
                self.metrics.count("jobs_cancel_requested")
                return job
        raise ServiceError(
            f"job {job_id} is {job.state.value}; terminal jobs cannot be cancelled"
        )

    # -- scheduling loop -----------------------------------------------------

    def run_until_complete(self) -> dict[str, Any]:
        """Drain the queue and return the metrics snapshot.

        While draining, the watchdog supervisor (when enabled) reaps
        deadline-exceeded and stalled workers.  If the coordinator itself
        dies - a crash, or the chaos harness's simulated one - every
        outstanding worker token is cancelled with ``kind="shutdown"`` so
        the pool drains promptly instead of hanging on live jobs.
        """
        if self.supervision.enabled:
            self.supervisor.start()
        try:
            with self.tracer.span("serve", stage="schedule", jobs=len(self._jobs)):
                with ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="job-worker"
                ) as pool:
                    try:
                        self._drain(pool)
                    except BaseException:
                        for token in list(self._tokens.values()):
                            token.cancel("service shutting down", kind="shutdown")
                        raise
        finally:
            if self.supervision.enabled:
                self.supervisor.stop()
        return self.snapshot()

    def _drain(self, pool: ThreadPoolExecutor) -> None:
        """The dispatch/complete loop (coordinator thread)."""
        futures: dict[Future, str] = {}
        while True:
            self._dispatch(pool, futures)
            if not futures:
                stuck = [
                    j for j in self._jobs.values() if j.state is JobState.PENDING
                ]
                if stuck:  # pragma: no cover - defensive: a policy that drops jobs
                    raise ServiceError(
                        f"{len(stuck)} pending job(s) cannot be dispatched"
                    )
                break
            done, _ = wait(set(futures), return_when=FIRST_COMPLETED)
            for future in sorted(done, key=lambda f: self._jobs[futures[f]].seq):
                self._complete(future, futures.pop(future))

    def _dispatch(self, pool: ThreadPoolExecutor, futures: dict[Future, str]) -> None:
        """One scheduling pass: fill free worker slots from the queue."""
        pending = [job for job in self._jobs.values() if job.state is JobState.PENDING]
        self.metrics.observe_queue_depth(len(pending))
        for job in self.policy.order(pending):
            key = job.cache_key
            if self.cache.peek(key) and self._complete_from_cache(job, key):
                continue
            if key in self._inflight:
                # A duplicate is computing right now; next pass hits the cache.
                continue
            if len(futures) >= self.workers:
                break
            with self._cancel_lock:
                if job.state is not JobState.PENDING:
                    # cancel() won the race after this pass snapshotted
                    # the queue; never dispatch a cancelled job.
                    continue
                self.cache.record_miss()
                job.attempts += 1
                job.transition(JobState.ADMITTED, at=self.clock.tick())
                self._journal_transition(job, job.admitted_at)
                job.transition(JobState.RUNNING, at=self.clock.tick())
                self._journal_transition(job, job.started_at)
                token = CancellationToken(on_beat=self.metrics.record_heartbeat)
                self._tokens[job.job_id] = token
            if self.supervision.enabled:
                self.supervisor.watch(job.job_id, token, job.spec.deadline_seconds)
            self._inflight[key] = job.job_id
            futures[
                pool.submit(
                    execute_job,
                    self._run_specs.get(job.job_id, job.spec),
                    self.machine,
                    self.sim_recovery,
                    self.sim_workers,
                    self.tracer if self.tracer is not NULL_TRACER else None,
                    job.job_id,
                    self.tracer.current_parent() if self.tracer.enabled else None,
                    token,
                    self.chaos_plan,
                    job.seq,
                    job.attempts,
                )
            ] = job.job_id

    def _complete_from_cache(self, job: Job, key: str) -> bool:
        """Serve a queued job instantly from the result cache.

        Returns False when the entry failed its CRC check between the
        scheduler's peek and this get - the corrupt payload has been
        dropped and the caller falls through to a fresh execution.
        """
        result = self.cache.get(key)  # counts the hit, refreshes recency
        if result is None:  # corrupt entry dropped by the CRC check
            return False
        job.attempts += 1
        job.cache_hit = True
        job.transition(JobState.ADMITTED, at=self.clock.tick())
        self._journal_transition(job, job.admitted_at)
        job.transition(JobState.RUNNING, at=self.clock.tick())
        self._journal_transition(job, job.started_at)
        job.result = result
        job.transition(JobState.SUCCEEDED, at=self.clock.tick())
        self._journal_transition(job, job.finished_at)
        if self.journal is not None:
            self.journal.record_result(job)
        self.metrics.count("jobs_succeeded")
        self.metrics.record_job(job)
        return True

    def _complete(self, future: Future, job_id: str) -> None:
        """Process one finished worker future (coordinator thread)."""
        job = self._jobs[job_id]
        self._inflight.pop(job.cache_key, None)
        self._tokens.pop(job_id, None)
        if self.supervision.enabled:
            self.supervisor.release(job_id)
        error = future.exception()
        if error is None:
            job.result = future.result()
            job.transition(JobState.SUCCEEDED, at=self.clock.tick())
            self._journal_transition(job, job.finished_at)
            if self.journal is not None:
                self.journal.record_result(job)
            self.cache.put(job.cache_key, job.result)
            if self.chaos_plan is not None and self.chaos_plan.cache_corrupt(
                self._cache_puts
            ):
                self.cache.corrupt_entry(job.cache_key)
            self._cache_puts += 1
            self.metrics.count("jobs_succeeded")
            self.metrics.absorb_result(job.result, job_id=job.job_id)
            self.metrics.record_job(job)
            return
        if isinstance(error, JobCancelled) and error.kind in USER_KINDS:
            # A user (or shutdown) cancel acknowledged by the worker:
            # terminal CANCELLED, never a failure, never retried.
            job.error = str(error)
            job.transition(JobState.CANCELLED, at=self.clock.tick())
            self._journal_transition(job, job.finished_at)
            self.metrics.count("jobs_cancelled")
            self.metrics.record_job(job)
            return
        if not isinstance(error, ReproError):
            raise error  # a bug, not a simulation fault - do not swallow it
        # Watchdog reaps (deadline / stall) arrive here as JobCancelled
        # and take the normal failure path: FAILED, then retry per policy.
        job.error = str(error)
        job.transition(JobState.FAILED, at=self.clock.tick())
        self._journal_transition(job, job.finished_at)
        if self.journal is not None:
            self.journal.record_error(job, str(error))
        self.metrics.count("job_attempt_failures")
        if (
            self.recovery.on_fault == "retry"
            and job.attempts < self.recovery.max_transfer_attempts
        ):
            self.metrics.count("jobs_retried")
            self.metrics.charge_backoff(self.recovery.backoff_seconds(job.attempts))
            job.transition(JobState.PENDING, at=self.clock.tick())
            self._journal_transition(job, None)
        else:
            self.metrics.count("jobs_failed")
            self.metrics.record_job(job)

    def _journal_transition(self, job: Job, at: float | None) -> None:
        if self.journal is not None:
            self.journal.record_transition(job, at)

    # -- reporting -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The full metrics export for this run."""
        config = {
            "machine": self.machine.name,
            "policy": self.policy.name,
            "workers": self.workers,
            "sim_workers": self.sim_workers,
            "deterministic": self.deterministic,
            "seed": self.seed,
            "cache_budget_bytes": self.cache.budget_bytes,
        }
        return self.metrics.snapshot(
            cache=self.cache.snapshot(),
            config=config,
            supervision=self.supervision_snapshot(),
        )

    def supervision_snapshot(self) -> dict[str, Any]:
        """Watchdog state, for the export."""
        return {
            "enabled": self.supervision.enabled,
            "stall_timeout_seconds": self.supervision.stall_timeout_seconds,
            "watchdog_reaps": self.supervisor.reaps,
            "watched_jobs": self.supervisor.watched(),
        }

    def metrics_json(self) -> str:
        """Canonical JSON metrics (byte-identical in deterministic mode)."""
        return MetricsRegistry.to_json(self.snapshot())


def load_manifest(path: str | Path) -> list[JobSpec]:
    """Parse a JSON job manifest into specs.

    The manifest is either a bare list of job objects or ``{"jobs": [...]}``;
    each entry takes :class:`JobSpec` fields plus an optional ``"copies"``
    count that expands into that many identical submissions (the easy way
    to build duplicate-heavy, cache-exercising workloads).

    Raises:
        ServiceError: On unreadable or malformed manifests.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as error:
        raise ServiceError(f"cannot read manifest {path}: {error}") from None
    except json.JSONDecodeError as error:
        raise ServiceError(f"{path}: not valid JSON ({error})") from None
    entries = data.get("jobs") if isinstance(data, dict) else data
    if not isinstance(entries, list):
        raise ServiceError(f"{path}: manifest must be a list or {{'jobs': [...]}}")
    specs: list[JobSpec] = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ServiceError(f"{path}: job {index} is not an object")
        entry = dict(entry)
        copies = entry.pop("copies", 1)
        if not isinstance(copies, int) or copies < 1:
            raise ServiceError(f"{path}: job {index} has invalid copies {copies!r}")
        spec = JobSpec.from_dict(entry)
        specs.extend([spec] * copies)
    return specs
