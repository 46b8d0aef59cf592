"""Service-layer wiring of the adaptive backend planner.

Covers the satellite guarantees: the result cache keys on backend and
precision, journal lines round-trip the new spec fields while legacy
lines replay with the pre-planner defaults, ``execute_job`` runs
non-dense backends end to end, and submission prices planner-routed jobs
(and rejects the combinations the planner cannot honour).
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.circuits.library import get_circuit
from repro.core.simulator import QGpuSimulator
from repro.errors import ServiceError
from repro.hardware.specs import MACHINES
from repro.obs import Tracer
from repro.reliability.policy import DEFAULT_POLICY
from repro.service import BatchService, JobStore
from repro.service.job import JobResult, JobSpec, cache_key
from repro.service.service import execute_job

P100 = MACHINES["p100"]


class TestCacheKey:
    def test_backend_and_precision_fold_into_the_key(self) -> None:
        base = JobSpec(family="bv", qubits=8, shots=16)
        keys = {
            cache_key("fp", base),
            cache_key("fp", dataclasses.replace(base, backend="auto")),
            cache_key("fp", dataclasses.replace(base, backend="stabilizer")),
            cache_key("fp", dataclasses.replace(base, precision="single")),
            cache_key("fp", dataclasses.replace(base, precision="auto")),
        }
        assert len(keys) == 5

    def test_identical_specs_share_a_key(self) -> None:
        a = JobSpec(family="bv", qubits=8, backend="auto", precision="auto")
        b = JobSpec(family="bv", qubits=8, backend="auto", precision="auto")
        assert cache_key("fp", a) == cache_key("fp", b)

    def test_default_spec_key_is_unchanged_by_the_new_fields(self) -> None:
        # Pre-planner journals replay with implicit statevector/double;
        # their cached results must stay addressable.
        spec = JobSpec(family="bv", qubits=8)
        assert spec.backend == "statevector"
        assert spec.precision == "double"


class TestSpecSerialisation:
    def test_defaults_are_omitted_from_journals(self) -> None:
        payload = JobSpec(family="bv", qubits=8).to_dict()
        assert "backend" not in payload
        assert "precision" not in payload

    def test_round_trip_preserves_backend_and_precision(self) -> None:
        spec = JobSpec(family="w", qubits=10, backend="auto", precision="single")
        restored = JobSpec.from_dict(spec.to_dict())
        assert restored == spec

    def test_legacy_line_replays_as_dense_double(self) -> None:
        # A journal written before the planner existed has no backend or
        # precision keys; it must deserialize to the old behaviour.
        spec = JobSpec.from_dict({"family": "bv", "qubits": 8, "shots": 4})
        assert spec.backend == "statevector"
        assert spec.precision == "double"

    def test_unknown_backend_rejected(self) -> None:
        with pytest.raises(ServiceError, match="backend"):
            JobSpec(family="bv", qubits=8, backend="tensor")

    def test_unknown_precision_rejected(self) -> None:
        with pytest.raises(ServiceError, match="precision"):
            JobSpec(family="bv", qubits=8, precision="quad")


class TestResultSerialisation:
    def test_round_trip(self) -> None:
        result = JobResult(
            counts={"3": 5}, state_sha256="ab", num_qubits=2,
            backend="sparse", precision="double", precision_fallback=True,
        )
        assert JobResult.from_dict(result.to_dict()) == result
        assert "truncation_error" not in result.to_dict()

    def test_legacy_payload_defaults(self) -> None:
        restored = JobResult.from_dict({"counts": {}, "state_sha256": "cd"})
        assert restored.backend == "statevector"
        assert restored.precision == "double"
        assert not restored.precision_fallback

    def test_payload_with_a_retired_key_loads(self) -> None:
        # Journals and caches written while MPS could truncate carry a
        # ``truncation_error`` key; from_dict reads named keys only.
        payload = JobResult(counts={"1": 3}, backend="mps").to_dict()
        restored = JobResult.from_dict({**payload, "truncation_error": 0.25})
        assert restored == JobResult.from_dict(payload)


class TestExecuteJob:
    def _run(self, spec: JobSpec) -> JobResult:
        return execute_job(spec, P100, DEFAULT_POLICY)

    def test_auto_routes_clifford_to_stabilizer(self) -> None:
        result = self._run(
            JobSpec(family="bv", qubits=10, shots=32, backend="auto")
        )
        assert result.backend == "stabilizer"
        assert sum(result.counts.values()) == 32
        assert len(result.state_sha256) == 64

    def test_auto_routes_w_state_to_sparse(self) -> None:
        result = self._run(
            JobSpec(family="w", qubits=12, shots=16, backend="auto")
        )
        assert result.backend == "sparse"
        # Every W-state outcome is a one-hot basis state.
        assert all(
            bin(int(index)).count("1") == 1 for index in result.counts
        )

    def test_single_precision_statevector(self) -> None:
        result = self._run(
            JobSpec(family="qft", qubits=8, shots=16, precision="single")
        )
        assert result.backend == "statevector"
        assert result.precision == "single"
        assert sum(result.counts.values()) == 16

    def test_default_spec_digest_matches_pre_planner_hash(self) -> None:
        # Same job, submitted twice with the byte-identical default path.
        first = self._run(JobSpec(family="qft", qubits=8, shots=8))
        second = self._run(JobSpec(family="qft", qubits=8, shots=8))
        assert first.precision == "double"
        assert first.state_sha256 == second.state_sha256
        assert first.counts == second.counts

    # gs is H on fresh qubits and CZ only: every sum has one non-zero term,
    # so its bytes (pinned at the parent commit) do not depend on the BLAS
    # or the CPU; qft's phases do, so it is checked against the copy only.
    @pytest.mark.parametrize(
        "family, qubits, precision, pinned",
        [
            ("gs", 10, "double",
             "2025f54d0f3f6943ad9383d38749c0dc2a0fce5028d4d7e8bc1fd025e6e3ee02"),
            ("gs", 10, "single",
             "247f75babac3340bd905ceab5c1fa09a488e9c9903cd7a7d0c8724dd1e2f2a4c"),
            ("qft", 9, "double", None),
            ("qft", 9, "single", None),
        ],
    )
    def test_state_digest_hashes_the_amplitude_bytes(
        self, family: str, qubits: int, precision: str, pinned: str | None
    ) -> None:
        # The job hashes the read-only amplitude view through the buffer
        # protocol; the digest is the one ``tobytes()`` (a copy) gave.
        result = self._run(
            JobSpec(family=family, qubits=qubits, shots=8, precision=precision)
        )
        direct = QGpuSimulator(machine=P100, precision=precision).run(
            get_circuit(family, qubits)
        )
        copied = direct.state.to_dense().tobytes()
        assert result.state_sha256 == hashlib.sha256(copied).hexdigest()
        assert pinned in (None, result.state_sha256)


class TestServiceSubmission:
    def test_fault_plan_requires_the_statevector_backend(self) -> None:
        service = BatchService(machine=P100, workers=1)
        with pytest.raises(ServiceError, match="fault"):
            service.submit(JobSpec(
                family="bv", qubits=8, fault_plan="seed=7,transfer=0.05",
                backend="auto",
            ))

    def test_single_precision_fault_job_matches_the_fault_free_job(self) -> None:
        service = BatchService(machine=P100, workers=1)
        faulted = service.submit(JobSpec(
            family="qft", qubits=8, shots=8, fault_plan="seed=7,transfer=0.05",
            precision="single",
        ))
        clean = service.submit(JobSpec(
            family="qft", qubits=8, shots=8, precision="single",
        ))
        snapshot = service.run_until_complete()
        assert snapshot["counters"]["jobs_succeeded"] == 2
        assert faulted.result.precision == "single"
        assert faulted.result.faults > 0
        assert faulted.result.state_sha256 == clean.result.state_sha256
        assert faulted.result.counts == clean.result.counts

    def test_planner_jobs_run_and_count_selection(self) -> None:
        service = BatchService(machine=P100, workers=1)
        service.submit(JobSpec(
            family="bv", qubits=10, shots=8, backend="auto", precision="auto",
        ))
        service.submit(JobSpec(family="bv", qubits=10, shots=8))
        snapshot = service.run_until_complete()
        assert snapshot["counters"]["jobs_succeeded"] == 2
        assert snapshot["counters"].get("planner.selected.stabilizer", 0) >= 1

    def test_each_auto_job_is_planned_once(self) -> None:
        # Submit plans and counts the selection; the run executes the
        # backend and precision chosen there instead of planning again.
        tracer = Tracer()
        service = BatchService(machine=P100, workers=1, tracer=tracer)
        specs = [
            JobSpec(family=family, qubits=qubits, shots=64, backend="auto")
            for family, qubits in (("bv", 8), ("qft", 9), ("rqc", 10))
        ]
        jobs = [service.submit(spec) for spec in specs]
        snapshot = service.run_until_complete()
        selected = {
            name: count
            for name, count in snapshot["counters"].items()
            if name.startswith("planner.selected.")
        }
        assert selected == {
            "planner.selected.stabilizer": 1,
            "planner.selected.statevector": 2,
        }
        assert [job.result.state_sha256[:16] for job in jobs] == [
            "31016329de073166", "cd92d87f1cad6e0b", "7a7d5a202f69b11b",
        ]
        for job, spec in zip(jobs, specs):
            assert job.spec == spec  # cache key and journal see the submission
            replanned = execute_job(spec, P100, DEFAULT_POLICY)
            assert job.result.state_sha256 == replanned.state_sha256
            assert job.result.counts == replanned.counts
            assert job.result.backend == replanned.backend

    def test_auto_and_explicit_jobs_do_not_share_cache(self) -> None:
        service = BatchService(machine=P100, workers=1)
        auto = service.submit(JobSpec(
            family="bv", qubits=10, shots=8, backend="auto",
        ))
        dense = service.submit(JobSpec(family="bv", qubits=10, shots=8))
        assert auto.cache_key != dense.cache_key
        snapshot = service.run_until_complete()
        assert snapshot["cache"]["hits"] == 0

    def test_journal_round_trips_planner_specs(self, tmp_path) -> None:
        journal = tmp_path / "journal.jsonl"
        service = BatchService(
            machine=P100, workers=1, journal=JobStore(journal)
        )
        submitted = service.submit(JobSpec(
            family="w", qubits=10, shots=8, backend="auto", precision="auto",
        ))
        service.run_until_complete()
        reloaded = JobStore(journal).load()[submitted.job_id]
        assert reloaded.spec.backend == "auto"
        assert reloaded.spec.precision == "auto"
        assert reloaded.result is not None
        assert reloaded.result.backend == "sparse"
