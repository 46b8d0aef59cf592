"""End-to-end integration: a downstream user's whole workflow.

Chains the public surface the way an adopter would: generate a workload,
transpile it, run it exactly through the Q-GPU pipeline,
persist the state, reload and sample, check observables across engines, and
finally price the large-width run on several machines with the timed model.
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.circuits.library import get_circuit
from repro.circuits.passes import transpile
from repro.circuits.qasm import from_qasm, to_qasm
from repro.core.simulator import QGpuSimulator
from repro.core.versions import (
    ALL_VERSIONS,
    QGPU,
    QGPU_BASIS_TRACKING,
    QGPU_DIAGONAL_AWARE,
)
from repro.mps import simulate_mps
from repro.statevector import dump_state, load_state, sample_counts, simulate
from repro.statevector.expectation import PauliString, expectation_pauli
from repro.hardware.specs import A100_MACHINE, PAPER_MACHINE


def _speedup_over_baseline(circuit, machine) -> float:
    """Baseline's modelled time over the fastest version's."""
    seconds = {
        version.name: QGpuSimulator(machine=machine, version=version)
        .estimate(circuit).total_seconds
        for version in (*ALL_VERSIONS, QGPU_DIAGONAL_AWARE, QGPU_BASIS_TRACKING)
    }
    assert min(seconds.values()) > 0
    return seconds["Baseline"] / min(seconds.values())


class TestFullWorkflow:
    def test_generate_transform_run_persist_sample_plan(self, tmp_path) -> None:
        # 1. Workload generation + interchange.
        circuit = get_circuit("qaoa", 10)
        circuit = from_qasm(to_qasm(circuit), name="qaoa_10")

        # 2. Transpile, preserving semantics.
        lowered = transpile(circuit)

        # 3. Exact run through the full Q-GPU functional pipeline.
        result = QGpuSimulator(version=QGPU, chunk_bits=4).run(lowered)
        reference = simulate(circuit).amplitudes
        np.testing.assert_allclose(result.amplitudes, reference, atol=1e-9)

        # 4. Persist compressed, reload bit-exact, sample.
        path = tmp_path / "qaoa10.qgsv"
        dump_state(result.amplitudes, path)
        restored = load_state(path)
        np.testing.assert_array_equal(
            restored.amplitudes.view(np.uint64),
            result.amplitudes.view(np.uint64),
        )
        counts = sample_counts(restored.amplitudes, shots=500, seed=0)
        assert sum(counts.values()) == 500

        # 5. Cross-engine observable agreement (original labelling).
        dense_state = simulate(circuit).amplitudes
        mps_state = simulate_mps(circuit)
        observable = PauliString.parse("Z0 Z1")
        dense_value = expectation_pauli(dense_state, observable)
        mps_value = expectation_pauli(mps_state.to_dense(), observable)
        assert dense_value == pytest.approx(mps_value, abs=1e-9)

        # 6. Price the real-size experiment on two machines.
        large = get_circuit("qaoa", 32)
        # The A100's larger device memory gives its static Baseline more
        # residency than the P100's (paper Section V-D).
        assert (_speedup_over_baseline(large, A100_MACHINE)
                < _speedup_over_baseline(large, PAPER_MACHINE))

    def test_memory_stream_roundtrip_of_pipeline_output(self) -> None:
        circuit = get_circuit("gs", 12)
        result = QGpuSimulator(version=QGPU).run(circuit)
        buffer = io.BytesIO()
        dump_state(result.amplitudes, buffer)
        buffer.seek(0)
        restored = load_state(buffer)
        assert restored.num_qubits == 12
        assert restored.fidelity(simulate(circuit)) == pytest.approx(1.0, abs=1e-10)
