"""Job model, lifecycle state machine, and cache-key tests."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.service.job import (
    ALLOWED_TRANSITIONS,
    Job,
    JobResult,
    JobSpec,
    JobState,
    cache_key,
)


def make_job(**spec_kwargs) -> Job:
    spec_kwargs.setdefault("family", "bv")
    spec_kwargs.setdefault("qubits", 6)
    return Job(job_id="j0001", seq=1, spec=JobSpec(**spec_kwargs), fingerprint="f" * 64)


class TestStateMachine:
    def test_happy_path(self) -> None:
        job = make_job()
        for state in (JobState.ADMITTED, JobState.RUNNING, JobState.SUCCEEDED):
            job.transition(state, at=1.0)
        assert job.state is JobState.SUCCEEDED

    def test_retry_edge_resets_timestamps(self) -> None:
        job = make_job()
        job.transition(JobState.ADMITTED, at=1.0)
        job.transition(JobState.RUNNING, at=2.0)
        job.transition(JobState.FAILED, at=3.0)
        job.transition(JobState.PENDING)
        assert job.state is JobState.PENDING
        assert job.started_at is None and job.finished_at is None

    @pytest.mark.parametrize("target", [
        JobState.RUNNING, JobState.SUCCEEDED, JobState.FAILED,
    ])
    def test_illegal_from_pending(self, target: JobState) -> None:
        with pytest.raises(ServiceError, match="illegal transition"):
            make_job().transition(target)

    def test_terminal_states_are_frozen(self) -> None:
        for terminal in (JobState.SUCCEEDED, JobState.CANCELLED):
            assert not ALLOWED_TRANSITIONS[terminal]

    def test_running_job_can_be_cancelled(self) -> None:
        job = make_job()
        job.transition(JobState.ADMITTED)
        job.transition(JobState.RUNNING)
        job.transition(JobState.CANCELLED, at=5.0)
        assert job.state is JobState.CANCELLED
        assert job.finished_at == 5.0

    def test_admitted_job_can_requeue(self) -> None:
        job = make_job()
        job.transition(JobState.ADMITTED, at=2.0)
        job.transition(JobState.PENDING)
        assert job.state is JobState.PENDING
        assert job.admitted_at is None

    def test_no_cancel_after_terminal(self) -> None:
        job = make_job()
        job.transition(JobState.ADMITTED)
        job.transition(JobState.RUNNING)
        job.transition(JobState.SUCCEEDED)
        with pytest.raises(ServiceError):
            job.transition(JobState.CANCELLED)

    def test_wait_and_run_times(self) -> None:
        job = make_job()
        job.submitted_at = 1.0
        job.transition(JobState.ADMITTED, at=3.0)
        job.transition(JobState.RUNNING, at=4.0)
        job.transition(JobState.SUCCEEDED, at=10.0)
        assert job.wait_time == pytest.approx(3.0)
        assert job.run_time == pytest.approx(6.0)


class TestJobSpec:
    def test_family_and_qasm_mutually_exclusive(self) -> None:
        with pytest.raises(ServiceError):
            JobSpec(family="bv", qubits=6, qasm="OPENQASM 2.0;")
        with pytest.raises(ServiceError):
            JobSpec()

    def test_rejects_bad_numbers(self) -> None:
        with pytest.raises(ServiceError):
            JobSpec(family="bv", qubits=0)
        with pytest.raises(ServiceError):
            JobSpec(family="bv", qubits=4, shots=-1)

    def test_dict_round_trip_is_compact(self) -> None:
        spec = JobSpec(family="qft", qubits=8, shots=100, priority=3)
        data = spec.to_dict()
        assert data == {"family": "qft", "qubits": 8, "shots": 100, "priority": 3}
        assert JobSpec.from_dict(data) == spec

    def test_from_dict_rejects_unknown_fields(self) -> None:
        with pytest.raises(ServiceError, match="unknown job spec fields"):
            JobSpec.from_dict({"family": "bv", "qubits": 4, "wat": 1})

    def test_build_circuit_from_family(self) -> None:
        circuit = JobSpec(family="bv", qubits=6).build_circuit()
        assert circuit.num_qubits == 6

    def test_build_circuit_from_qasm(self) -> None:
        from repro.circuits.library import get_circuit
        from repro.circuits.qasm import to_qasm

        qasm = to_qasm(get_circuit("gs", 5))
        circuit = JobSpec(qasm=qasm, name="mine").build_circuit()
        assert circuit.num_qubits == 5


class TestCacheKey:
    def test_same_inputs_same_key(self) -> None:
        spec = JobSpec(family="bv", qubits=6, shots=10)
        assert cache_key("a" * 64, spec) == cache_key("a" * 64, spec)

    @pytest.mark.parametrize("change", [
        {"version": "Naive"},
        {"shots": 11},
        {"seed": 1},
        {"chunk_bits": 3},
        {"fault_plan": "seed=1,transfer=0.1"},
    ])
    def test_any_knob_changes_key(self, change: dict) -> None:
        base = JobSpec(family="bv", qubits=6, shots=10)
        varied = JobSpec(**{**{"family": "bv", "qubits": 6, "shots": 10}, **change})
        assert cache_key("a" * 64, base) != cache_key("a" * 64, varied)

    def test_fingerprint_changes_key(self) -> None:
        spec = JobSpec(family="bv", qubits=6)
        assert cache_key("a" * 64, spec) != cache_key("b" * 64, spec)

    def test_priority_does_not_change_key(self) -> None:
        # Priority affects scheduling, never the result.
        low = JobSpec(family="bv", qubits=6, priority=0)
        high = JobSpec(family="bv", qubits=6, priority=9)
        assert cache_key("a" * 64, low) == cache_key("a" * 64, high)


class TestJobResult:
    def test_round_trip(self) -> None:
        result = JobResult(
            counts={"3": 7, "0": 2}, state_sha256="s" * 64,
            pruned_fraction=0.25, num_qubits=4,
        )
        again = JobResult.from_dict(result.to_dict())
        assert again.counts == result.counts
        assert again.state_sha256 == result.state_sha256
        assert again.pruned_fraction == result.pruned_fraction
