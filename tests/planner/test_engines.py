"""Tests for the non-dense execution adapter (run_backend / BackendExecution)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.circuits.library import get_circuit
from repro.errors import AnalysisError, SimulationError
from repro.planner import run_backend
from repro.service import BatchService, JobSpec
from repro.statevector.state import simulate


class TestDispatch:
    def test_statevector_is_not_an_adapter_backend(self) -> None:
        with pytest.raises(AnalysisError):
            run_backend(get_circuit("bv", 6), "statevector")

    def test_unknown_backend_rejected(self) -> None:
        with pytest.raises(AnalysisError):
            run_backend(get_circuit("bv", 6), "gpu")

    @pytest.mark.parametrize("backend", ["stabilizer", "sparse", "mps"])
    def test_reports_backend_and_width(self, backend: str) -> None:
        circuit = get_circuit("ghz", 6)
        execution = run_backend(circuit, backend)
        assert execution.backend == backend
        assert execution.num_qubits == 6


class TestDenseAgreement:
    @pytest.mark.parametrize("backend", ["sparse", "mps"])
    def test_to_dense_matches_reference(self, backend: str) -> None:
        circuit = get_circuit("w", 8)
        reference = simulate(circuit).amplitudes
        np.testing.assert_allclose(
            run_backend(circuit, backend).to_dense(), reference, atol=1e-10
        )

    def test_stabilizer_has_no_dense_view(self) -> None:
        execution = run_backend(get_circuit("ghz", 6), "stabilizer")
        with pytest.raises(SimulationError):
            execution.to_dense()

    def test_stabilizer_z_expectations_match_dense(self) -> None:
        circuit = get_circuit("gs", 8)
        reference = simulate(circuit).amplitudes
        probabilities = np.abs(reference) ** 2
        execution = run_backend(circuit, "stabilizer")
        for qubit in range(8):
            bits = (np.arange(probabilities.size) >> qubit) & 1
            expected = float(np.sum(probabilities * (1 - 2 * bits)))
            assert execution.expectation_z(qubit) == pytest.approx(
                expected, abs=1e-9
            )


class TestSampling:
    @pytest.mark.parametrize("backend", ["stabilizer", "sparse", "mps"])
    def test_sampling_is_seed_deterministic(self, backend: str) -> None:
        circuit = get_circuit("ghz", 6)
        execution = run_backend(circuit, backend)
        first = execution.sample_counts(64, seed=7)
        second = execution.sample_counts(64, seed=7)
        assert first == second
        assert sum(first.values()) == 64

    def test_ghz_samples_only_the_two_branches(self) -> None:
        circuit = get_circuit("ghz", 6)
        for backend in ("stabilizer", "sparse"):
            counts = run_backend(circuit, backend).sample_counts(128, seed=3)
            assert set(counts) <= {0, (1 << 6) - 1}

    @pytest.mark.parametrize("backend", ["stabilizer", "sparse", "mps"])
    @pytest.mark.parametrize("shots", [0, -3])
    def test_non_positive_shots_rejected(self, backend: str, shots: int) -> None:
        execution = run_backend(get_circuit("ghz", 4), backend)
        with pytest.raises(SimulationError, match="shots must be positive"):
            execution.sample_counts(shots)

    def test_journaled_counts_are_byte_identical_to_the_per_shot_sampler(
        self,
    ) -> None:
        # JobResult.counts JSON and tableau digests as the parent commit
        # (one collapsing measure_all per shot) produced them.
        service = BatchService(workers=1)
        jobs = [
            service.submit(JobSpec(
                family=family, qubits=qubits, shots=24, seed=2,
                backend="auto", precision="auto",
            ))
            for family, qubits in (("hlf", 10), ("bv", 12))
        ]
        service.run_until_complete()
        hlf, bv = (job.result for job in jobs)
        assert hlf.backend == bv.backend == "stabilizer"
        assert json.dumps(hlf.counts) == (
            '{"65": 1, "347": 1, "658": 1, "995": 1, "896": 1, "219": 1, '
            '"139": 1, "235": 1, "91": 1, "553": 1, "537": 1, "666": 1, '
            '"888": 1, "784": 1, "96": 1, "754": 1, "883": 1, "227": 1, '
            '"81": 1, "368": 1, "515": 1, "370": 1, "297": 1, "298": 1}'
        )
        assert json.dumps(bv.counts) == '{"4095": 10, "2047": 14}'
        assert hlf.state_sha256 == (
            "f6526ba995f1294b3dcea47ca40c8754d979c979362ae8dbc1a8f9ef861ef2d3"
        )
        assert bv.state_sha256 == (
            "4fda4101ac4d5dbdb14e5558c18197dd8e11ad098372923bad5a205dd34bed90"
        )


class TestDigest:
    @pytest.mark.parametrize("backend", ["stabilizer", "sparse", "mps"])
    def test_digest_is_stable_across_runs(self, backend: str) -> None:
        circuit = get_circuit("ghz", 7)
        first = run_backend(circuit, backend).digest()
        second = run_backend(circuit, backend).digest()
        assert first == second
        assert len(first) == 64  # hex sha256

    def test_digest_distinguishes_circuits(self) -> None:
        a = run_backend(get_circuit("w", 7), "sparse").digest()
        b = run_backend(get_circuit("ghz", 7), "sparse").digest()
        assert a != b

    def test_digest_distinguishes_backends(self) -> None:
        circuit = get_circuit("ghz", 7)
        assert (run_backend(circuit, "sparse").digest()
                != run_backend(circuit, "mps").digest())
