"""End-to-end batch-service tests: the ISSUE's acceptance criteria live here.

* duplicate submissions hit the cache and return results identical to a
  fresh simulation;
* ``workers=1`` runs are deterministic down to the exported metrics bytes;
* a job that can never fit in host memory is rejected at submit;
* policies order execution as specified (priority, SJF via the cost model);
* cancelling a PENDING job guarantees it never runs;
* a job failing under an injected fault plan is retried per the
  reliability policy, visibly in the metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time

import dataclasses

import pytest

from repro.analysis.capacity import host_footprint_bytes
from repro.circuits.library import get_circuit
from repro.core.simulator import QGpuSimulator
from repro.errors import AdmissionError, JobNotFound, ServiceError
from repro.hardware.specs import PAPER_MACHINE
from repro.reliability.faults import FaultPlan
from repro.reliability.policy import STRICT_POLICY, RecoveryPolicy
from repro.service import (
    BatchService,
    JobSpec,
    JobState,
    JobStore,
    SupervisionConfig,
    load_manifest,
)
from tests.service.chaos_journal import ChaosJournal, SimulatedCrash


def service(**kwargs) -> BatchService:
    kwargs.setdefault("workers", 1)
    return BatchService(**kwargs)


class TestCacheIntegration:
    def test_duplicates_hit_cache_with_identical_results(self) -> None:
        svc = service()
        first = svc.submit(JobSpec(family="bv", qubits=8, shots=50))
        other = svc.submit(JobSpec(family="gs", qubits=6, shots=50))
        duplicate = svc.submit(JobSpec(family="bv", qubits=8, shots=50))
        snap = svc.run_until_complete()

        assert snap["cache"]["hits"] == 1
        assert snap["cache"]["misses"] == 2
        assert not first.cache_hit and duplicate.cache_hit and not other.cache_hit
        # Hit and miss paths agree exactly - counts and amplitude digest.
        assert duplicate.result.state_sha256 == first.result.state_sha256
        assert duplicate.result.counts == first.result.counts
        # ... and both equal a direct simulator run of the same circuit.
        direct = QGpuSimulator().run(get_circuit("bv", 8))
        digest = hashlib.sha256(direct.amplitudes.tobytes()).hexdigest()
        assert first.result.state_sha256 == digest

    def test_concurrent_duplicates_deduplicate_in_flight(self) -> None:
        svc = service(workers=4)
        jobs = [svc.submit(JobSpec(family="qft", qubits=8, shots=10))
                for _ in range(4)]
        snap = svc.run_until_complete()
        # Only one execution: the other three were held while the first
        # was in flight, then served from the cache.
        assert snap["cache"]["misses"] == 1
        assert snap["cache"]["hits"] == 3
        digests = {job.result.state_sha256 for job in jobs}
        assert len(digests) == 1

    def test_eviction_under_tiny_budget(self) -> None:
        svc = service(cache_budget_bytes=600)
        for seed in range(4):
            svc.submit(JobSpec(family="rqc", qubits=6, seed=seed))
        snap = svc.run_until_complete()
        assert snap["cache"]["evictions"] > 0
        assert snap["cache"]["stored_bytes"] <= 600
        assert all(job.state is JobState.SUCCEEDED for job in svc.jobs)


class TestDeterminism:
    @staticmethod
    def _run(policy: str) -> str:
        svc = service(policy=policy, seed=11)
        for fam, n, shots in [("bv", 8, 40), ("gs", 6, 40), ("bv", 8, 40),
                              ("qft", 6, 0), ("gs", 6, 40), ("bv", 8, 40)]:
            svc.submit(JobSpec(family=fam, qubits=n, shots=shots))
        svc.run_until_complete()
        return svc.metrics_json()

    @pytest.mark.parametrize("policy", ["fifo", "priority", "sjf"])
    def test_single_worker_metrics_are_byte_identical(self, policy: str) -> None:
        assert self._run(policy) == self._run(policy)

    def test_deterministic_mode_uses_logical_clock(self) -> None:
        svc = service()
        assert svc.deterministic
        svc.submit(JobSpec(family="bv", qubits=6))
        svc.run_until_complete()
        record = json.loads(svc.metrics_json())["jobs"][0]
        assert isinstance(record["wait_time"], int)
        assert isinstance(record["run_time"], int)


class TestAdmissionControl:
    def test_never_fitting_job_rejected_at_submit(self) -> None:
        small_host = dataclasses.replace(
            PAPER_MACHINE, host_memory_bytes=math.ceil(host_footprint_bytes(6))
        )
        svc = service(machine=small_host)
        svc.submit(JobSpec(family="bv", qubits=6))  # exactly fits
        with pytest.raises(AdmissionError, match="can never be admitted"):
            svc.submit(JobSpec(family="bv", qubits=12))
        assert len(svc.jobs) == 1  # the rejected job never entered the queue


class TestPolicies:
    def test_priority_order_respected(self) -> None:
        svc = service(policy="priority")
        low = svc.submit(JobSpec(family="bv", qubits=6, priority=0))
        high = svc.submit(JobSpec(family="gs", qubits=6, priority=5))
        mid = svc.submit(JobSpec(family="qft", qubits=6, priority=2))
        svc.run_until_complete()
        assert high.started_at < mid.started_at < low.started_at

    def test_sjf_runs_cheapest_estimate_first(self) -> None:
        svc = service(policy="sjf")
        wide = svc.submit(JobSpec(family="bv", qubits=12))
        narrow = svc.submit(JobSpec(family="bv", qubits=6))
        assert narrow.estimated_seconds < wide.estimated_seconds
        svc.run_until_complete()
        assert narrow.started_at < wide.started_at

    def test_fifo_ignores_priority(self) -> None:
        svc = service(policy="fifo")
        first = svc.submit(JobSpec(family="bv", qubits=6, priority=0))
        second = svc.submit(JobSpec(family="gs", qubits=6, priority=9))
        svc.run_until_complete()
        assert first.started_at < second.started_at


class TestCancellation:
    def test_cancelled_pending_job_never_runs(self) -> None:
        svc = service()
        keep = svc.submit(JobSpec(family="bv", qubits=6))
        doomed = svc.submit(JobSpec(family="gs", qubits=6))
        svc.cancel(doomed.job_id)
        snap = svc.run_until_complete()
        assert doomed.state is JobState.CANCELLED
        assert doomed.attempts == 0 and doomed.result is None
        assert keep.state is JobState.SUCCEEDED
        assert snap["counters"]["jobs_cancelled"] == 1

    def test_cannot_cancel_terminal_job(self) -> None:
        svc = service()
        job = svc.submit(JobSpec(family="bv", qubits=6))
        svc.run_until_complete()
        with pytest.raises(ServiceError, match="terminal jobs cannot be cancelled"):
            svc.cancel(job.job_id)

    def test_unknown_job_raises(self) -> None:
        with pytest.raises(JobNotFound):
            service().cancel("j9999")


class TestRetries:
    def test_faulting_job_retried_per_reliability_policy(self) -> None:
        # The strict in-run policy turns the first injected transfer fault
        # into an IntegrityError; the service-level policy then retries the
        # whole job up to its attempt budget.
        retry3 = RecoveryPolicy(max_transfer_attempts=3)
        svc = service(recovery=retry3, sim_recovery=STRICT_POLICY)
        bad = svc.submit(JobSpec(
            family="bv", qubits=6, fault_plan="seed=3,transfer=1.0"
        ))
        good = svc.submit(JobSpec(family="bv", qubits=6))
        snap = svc.run_until_complete()

        assert bad.state is JobState.FAILED
        assert bad.attempts == 3
        assert snap["counters"]["jobs_retried"] == 2
        assert snap["counters"]["job_attempt_failures"] == 3
        assert snap["counters"]["jobs_failed"] == 1
        assert snap["retry_backoff_seconds"] == pytest.approx(
            retry3.backoff_seconds(1) + retry3.backoff_seconds(2)
        )
        assert bad.error  # failure message recorded on the job
        assert good.state is JobState.SUCCEEDED

    def test_no_retry_when_policy_raises(self) -> None:
        svc = service(recovery=STRICT_POLICY, sim_recovery=STRICT_POLICY)
        job = svc.submit(JobSpec(
            family="bv", qubits=6, fault_plan="seed=3,transfer=1.0"
        ))
        snap = svc.run_until_complete()
        assert job.state is JobState.FAILED
        assert job.attempts == 1
        assert snap["counters"].get("jobs_retried", 0) == 0

    def test_retries_recorded_in_job_metrics(self) -> None:
        svc = service(sim_recovery=STRICT_POLICY)
        svc.submit(JobSpec(family="bv", qubits=6, fault_plan="seed=3,transfer=1.0"))
        snap = svc.run_until_complete()
        record = snap["jobs"][0]
        assert record["state"] == "FAILED"
        assert record["attempts"] == 4  # DEFAULT_POLICY budget
        assert record["error"]


class TestManifest:
    def test_copies_expand(self, tmp_path) -> None:
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({"jobs": [
            {"family": "bv", "qubits": 6, "copies": 3},
            {"family": "gs", "qubits": 6},
        ]}))
        specs = load_manifest(path)
        assert len(specs) == 4
        assert sum(1 for s in specs if s.family == "bv") == 3

    def test_bare_list_accepted(self, tmp_path) -> None:
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps([{"family": "bv", "qubits": 6}]))
        assert len(load_manifest(path)) == 1

    @pytest.mark.parametrize("text", [
        "not json", '{"jobs": 5}', '[{"family": "bv", "qubits": 6, "copies": 0}]',
        '[["nope"]]',
    ])
    def test_malformed_manifest_rejected(self, tmp_path, text: str) -> None:
        path = tmp_path / "jobs.json"
        path.write_text(text)
        with pytest.raises(ServiceError):
            load_manifest(path)


class TestJournalIntegration:
    def test_submit_run_status_across_instances(self, tmp_path) -> None:
        journal = tmp_path / "jobs.jsonl"
        producer = service(journal=journal)
        producer.submit(JobSpec(family="bv", qubits=6, shots=10))
        producer.submit(JobSpec(family="gs", qubits=6))

        runner = service(journal=journal)
        adopted = runner.recover()
        assert [job.job_id for job in adopted] == ["j0001", "j0002"]
        runner.run_until_complete()

        from repro.service import JobStore

        jobs = JobStore(journal).load()
        assert all(job.state is JobState.SUCCEEDED for job in jobs.values())
        assert jobs["j0001"].result.counts  # results persisted

    def test_journal_seq_continues_across_instances(self, tmp_path) -> None:
        journal = tmp_path / "jobs.jsonl"
        service(journal=journal).submit(JobSpec(family="bv", qubits=6))
        job = service(journal=journal).submit(JobSpec(family="gs", qubits=6))
        assert job.job_id == "j0002"

    def test_recover_requires_journal(self) -> None:
        with pytest.raises(ServiceError, match="requires a journal"):
            service().recover()

    def test_recover_of_a_new_journal_adopts_nothing(self, tmp_path) -> None:
        # serve-batch recovers whenever it has a journal, a fresh one too.
        journal = tmp_path / "jobs.jsonl"
        svc = service(journal=journal)
        assert svc.recover() == []
        job = svc.submit(JobSpec(family="bv", qubits=6))
        svc.run_until_complete()
        assert job.job_id == "j0001"
        assert JobStore(journal).get("j0001").state is JobState.SUCCEEDED


class TestValidation:
    def test_unknown_version_rejected(self) -> None:
        with pytest.raises(ServiceError, match="unknown version"):
            service().submit(JobSpec(family="bv", qubits=6, version="Q-TPU"))

    def test_workers_must_be_positive(self) -> None:
        with pytest.raises(ServiceError):
            BatchService(workers=0)

    @pytest.mark.parametrize(
        "retired", [{"memory_budget_bytes": 1 << 30}, {"breaker": None}],
        ids=["memory_budget_bytes", "breaker"],
    )
    def test_retired_keywords_rejected(self, retired: dict) -> None:
        # Aggregate admission and circuit breakers were retired (DESIGN.md
        # census); the never-fits check at submit is all that remains.
        with pytest.raises(TypeError):
            BatchService(**retired)

    @pytest.mark.parametrize(
        "fault_plan", ["bogus=1", "transfer=lots", "degrade=0.1", "torn=0.5", "crash=0.1"]
    )
    def test_unparsable_fault_plan_rejected_before_journaling(
        self, tmp_path, fault_plan: str
    ) -> None:
        journal = tmp_path / "jobs.jsonl"
        svc = service(journal=journal)
        with pytest.raises(ServiceError, match="bad fault_plan"):
            svc.submit(JobSpec(family="bv", qubits=6, fault_plan=fault_plan))
        assert svc.jobs == []
        assert JobStore(journal).load() == {}

    def test_extension_versions_servable(self) -> None:
        svc = service()
        job = svc.submit(JobSpec(family="bv", qubits=6, version="Q-GPU+basis"))
        svc.run_until_complete()
        assert job.state is JobState.SUCCEEDED


class TestSimWorkers:
    def test_bad_sim_workers_rejected_at_construction(self) -> None:
        with pytest.raises(Exception, match="workers"):
            BatchService(workers=1, sim_workers=0)

    def test_parallel_sim_matches_serial_counts(self) -> None:
        # BV lands all probability on one basis state, so the sampled
        # counts are invariant to the parallel engine's float reordering.
        spec = JobSpec(family="bv", qubits=8, shots=50)
        svc_serial = service(sim_workers=1)
        serial_job = svc_serial.submit(spec)
        svc_serial.run_until_complete()
        svc_parallel = service(sim_workers=4)
        parallel_job = svc_parallel.submit(spec)
        snap = svc_parallel.run_until_complete()
        assert parallel_job.state is JobState.SUCCEEDED
        assert parallel_job.result.counts == serial_job.result.counts
        assert snap["config"]["sim_workers"] == 4

    def test_parallel_sim_is_run_to_run_deterministic(self) -> None:
        # The engine's partitioning is fixed, so two parallel runs agree
        # down to the amplitude digest even though parallel != serial
        # bit-for-bit.
        spec = JobSpec(family="qft", qubits=8, shots=10)
        digests = []
        for _ in range(2):
            svc = service(sim_workers=4)
            job = svc.submit(spec)
            svc.run_until_complete()
            digests.append(job.result.state_sha256)
        assert digests[0] == digests[1]


class TestMetricsAbsorption:
    def test_absorb_result_idempotent_per_job(self) -> None:
        from repro.service import JobResult, MetricsRegistry

        metrics = MetricsRegistry()
        result = JobResult(chunk_updates_total=10, chunk_updates_skipped=4,
                           transfers=2, retries=1, faults=1)
        metrics.absorb_result(result, job_id="j0001")
        metrics.absorb_result(result, job_id="j0001")  # journal replay
        assert metrics.counters.get("sim.chunk_updates_total") == 10
        assert metrics.counters.get("sim.retries") == 1
        # A different job's identical stats still count.
        metrics.absorb_result(result, job_id="j0002")
        assert metrics.counters.get("sim.chunk_updates_total") == 20

    def test_absorb_without_job_id_stays_unguarded(self) -> None:
        from repro.service import JobResult, MetricsRegistry

        metrics = MetricsRegistry()
        result = JobResult(chunk_updates_total=5)
        metrics.absorb_result(result)
        metrics.absorb_result(result)
        assert metrics.counters.get("sim.chunk_updates_total") == 10

    def test_service_run_absorbs_each_job_once(self) -> None:
        svc = service()
        svc.submit(JobSpec(family="bv", qubits=6))
        svc.submit(JobSpec(family="bv", qubits=6))  # cache hit: not absorbed twice
        snap = svc.run_until_complete()
        direct = QGpuSimulator().run(get_circuit("bv", 6))
        assert (snap["counters"]["sim.chunk_updates_total"]
                == direct.chunk_updates_total)

    def test_every_terminal_job_record_carries_wait_and_run_time(self) -> None:
        svc = service()
        svc.submit(JobSpec(family="bv", qubits=6))
        svc.submit(JobSpec(family="gs", qubits=6))
        svc.submit(JobSpec(family="bv", qubits=6))  # cache hit
        svc.run_until_complete()
        records = json.loads(svc.metrics_json())["jobs"]
        assert sorted(record["id"] for record in records) == [job.job_id for job in svc.jobs]
        for record in records:
            assert record["wait_time"] is not None and record["wait_time"] >= 0, record
            assert record["run_time"] is not None and record["run_time"] > 0, record


    def test_metrics_json_keys_are_the_service_record(self) -> None:
        svc = service()
        svc.submit(JobSpec(family="bv", qubits=6))
        svc.run_until_complete()
        assert list(json.loads(svc.metrics_json())) == [
            "cache", "config", "counters", "jobs", "max_queue_depth",
            "retry_backoff_seconds", "supervision",
        ]


class TestSelfHealing:
    def test_deadline_exceeded_job_is_reaped_retried_and_counted(self) -> None:
        # Every attempt stalls (chaos), so only the watchdog's deadline
        # kill can unstick the worker; the retry budget then runs out.
        svc = service(
            supervision=SupervisionConfig(poll_interval_seconds=0.01),
            chaos_plan=FaultPlan(worker_stall_rate=1.0),
            recovery=RecoveryPolicy(max_transfer_attempts=2, backoff_base=1e-4),
        )
        job = svc.submit(JobSpec(family="bv", qubits=6, deadline_seconds=0.05))
        snap = svc.run_until_complete()
        assert job.state is JobState.FAILED
        assert "deadline exceeded" in job.error
        assert job.attempts == 2
        assert snap["counters"]["watchdog.reaps"] == 2
        assert snap["counters"]["deadline.kills"] == 2
        assert snap["counters"]["jobs_retried"] == 1
        assert snap["counters"]["jobs_failed"] == 1
        assert snap["supervision"]["watchdog_reaps"] == 2

    def test_stalled_worker_is_reaped_as_stall(self) -> None:
        svc = service(
            supervision=SupervisionConfig(
                poll_interval_seconds=0.01, stall_timeout_seconds=0.05
            ),
            chaos_plan=FaultPlan(worker_stall_rate=1.0),
            recovery=RecoveryPolicy(max_transfer_attempts=1, backoff_base=1e-4),
        )
        job = svc.submit(JobSpec(family="bv", qubits=6))
        snap = svc.run_until_complete()
        assert job.state is JobState.FAILED
        assert "worker stalled" in job.error
        assert snap["counters"]["stall.kills"] == 1
        assert snap["counters"]["jobs_failed"] == 1

    def test_supervision_disabled_leaves_no_watchdog_counters(self) -> None:
        svc = service(supervision=SupervisionConfig(enabled=False))
        svc.submit(JobSpec(family="bv", qubits=6, deadline_seconds=3600.0))
        snap = svc.run_until_complete()
        assert snap["counters"].get("watchdog.reaps", 0) == 0
        assert snap["supervision"]["enabled"] is False


class TestRunningCancellation:
    def test_cancel_running_job_stops_cooperatively(self) -> None:
        # The stall keeps the worker spinning on its token until the
        # user's cancel flips it; no watchdog involvement.
        svc = service(
            supervision=SupervisionConfig(enabled=False),
            chaos_plan=FaultPlan(worker_stall_rate=1.0),
        )
        job = svc.submit(JobSpec(family="bv", qubits=6))
        runner = threading.Thread(target=svc.run_until_complete)
        runner.start()
        try:
            deadline = time.monotonic() + 5.0
            while job.state is not JobState.RUNNING and time.monotonic() < deadline:
                time.sleep(0.005)
            assert job.state is JobState.RUNNING
            svc.cancel(job.job_id)
        finally:
            runner.join(timeout=5.0)
        assert not runner.is_alive()
        assert job.state is JobState.CANCELLED
        assert job.result is None
        assert svc.metrics.counters.get("jobs_cancel_requested") == 1
        assert svc.metrics.counters.get("jobs_cancelled") == 1
        assert svc.metrics.counters.get("jobs_failed", 0) == 0

    def test_cancel_between_queue_snapshot_and_dispatch_never_runs(self) -> None:
        # Force the race deterministically: cancel lands after the
        # dispatch pass has snapshotted the queue (inside policy.order)
        # but before the job is handed to the pool.  The dispatcher's
        # under-lock state re-check must drop it.
        svc = service()
        job = svc.submit(JobSpec(family="bv", qubits=6))
        original_order = svc.policy.order

        def order_then_cancel(pending):
            ordered = list(original_order(pending))
            if any(j.job_id == job.job_id for j in ordered):
                svc.cancel(job.job_id)
            return ordered

        svc.policy.order = order_then_cancel  # type: ignore[method-assign]
        snap = svc.run_until_complete()
        assert job.state is JobState.CANCELLED
        assert job.attempts == 0
        assert job.result is None
        assert snap["counters"]["jobs_cancelled"] == 1
        assert snap["counters"].get("jobs_succeeded", 0) == 0


class TestRestartRecovery:
    def test_running_jobs_requeued_exactly_once_after_crash(self, tmp_path) -> None:
        path = tmp_path / "jobs.jsonl"
        journal = ChaosJournal(path)
        svc = service(journal=journal)
        first = svc.submit(JobSpec(family="bv", qubits=6, shots=5))
        second = svc.submit(JobSpec(family="gs", qubits=5))
        # Die on the first job's SUCCEEDED append (ADMITTED, RUNNING,
        # then the kill): the journal records it RUNNING at crash time.
        journal.arm_kill(3)
        with pytest.raises(SimulatedCrash):
            svc.run_until_complete()
        assert JobStore(path).get(first.job_id).state is JobState.RUNNING

        restarted = BatchService(workers=1, journal=JobStore(path))
        recovered = restarted.recover()
        assert {j.job_id for j in recovered} == {first.job_id, second.job_id}
        requeued = restarted.job(first.job_id)
        assert requeued.state is JobState.PENDING
        assert requeued.attempts == 1  # the crashed attempt stays charged
        assert restarted.metrics.counters.get("recovery.requeued") == 1
        assert restarted.metrics.counters.get("jobs_adopted") == 1
        restarted.run_until_complete()
        jobs = JobStore(path).load()
        assert all(j.state is JobState.SUCCEEDED for j in jobs.values())
        # The journal is the ground truth: one terminal per job, ever.
        terminals: dict[str, int] = {}
        for event in JobStore(path).iter_events():
            if event["event"] == "transition" and event["to"] == "SUCCEEDED":
                terminals[event["id"]] = terminals.get(event["id"], 0) + 1
        assert terminals == {first.job_id: 1, second.job_id: 1}

    def test_second_recover_does_not_requeue_again(self, tmp_path) -> None:
        path = tmp_path / "jobs.jsonl"
        journal = ChaosJournal(path)
        svc = service(journal=journal)
        job = svc.submit(JobSpec(family="bv", qubits=6))
        journal.arm_kill(3)
        with pytest.raises(SimulatedCrash):
            svc.run_until_complete()
        restarted = BatchService(workers=1, journal=JobStore(path))
        assert len(restarted.recover()) == 1
        assert restarted.recover() == []  # idempotent: already adopted
        assert restarted.job(job.job_id).attempts == 1

    def test_recovery_seeds_cache_from_journaled_results(self, tmp_path) -> None:
        path = tmp_path / "jobs.jsonl"
        svc = service(journal=path)
        done = svc.submit(JobSpec(family="bv", qubits=6, shots=5))
        svc.run_until_complete()

        restarted = BatchService(workers=1, journal=JobStore(path))
        restarted.recover()
        duplicate = restarted.submit(JobSpec(family="bv", qubits=6, shots=5))
        snap = restarted.run_until_complete()
        assert duplicate.cache_hit  # served from the seeded cache
        assert duplicate.result.state_sha256 == done.result.state_sha256
        assert snap["counters"]["recovery.cache_seeded"] == 1
        assert snap["cache"]["hits"] == 1
        assert snap["cache"]["misses"] == 0


class TestCacheCorruptionFallthrough:
    def test_corrupt_entry_is_dropped_and_recomputed(self) -> None:
        svc = service(supervision=SupervisionConfig(enabled=False))
        first = svc.submit(JobSpec(family="bv", qubits=6, shots=5))
        svc.run_until_complete()
        assert svc.cache.peek(first.cache_key)
        svc.cache.corrupt_entry(first.cache_key)

        duplicate = svc.submit(JobSpec(family="bv", qubits=6, shots=5))
        snap = svc.run_until_complete()
        assert not duplicate.cache_hit  # CRC check dropped the entry
        assert duplicate.state is JobState.SUCCEEDED
        assert duplicate.result.state_sha256 == first.result.state_sha256
        assert snap["cache"]["corruptions"] == 1
