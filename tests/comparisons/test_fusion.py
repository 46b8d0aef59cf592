"""Tests for the gate-fusion pass."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import FAMILIES, get_circuit
from repro.circuits.fusion import fuse
from repro.errors import SimulationError
from repro.statevector.apply import apply_matrix
from repro.statevector.state import StateVector, simulate


def apply_blocks(
    state: np.ndarray, circuit: QuantumCircuit, max_fused_qubits: int
) -> None:
    """One ``apply_matrix`` pass per fused block, in place."""
    for block in fuse(circuit, max_fused_qubits):
        apply_matrix(state, block.matrix(), block.qubits)


class TestFusionStructure:
    def test_blocks_reproduce_circuit(self) -> None:
        circuit = get_circuit("qft", 8)
        blocks = fuse(circuit)
        flattened = [gate for block in blocks for gate in block.gates]
        assert flattened == list(circuit.gates)

    def test_block_width_bounded(self) -> None:
        for family in FAMILIES:
            circuit = get_circuit(family, 10)
            for block in fuse(circuit, max_fused_qubits=4):
                assert 1 <= block.width <= 4
                assert block.qubits == tuple(sorted(block.qubits))

    def test_chain_on_one_qubit_fully_fuses(self) -> None:
        circuit = QuantumCircuit(1)
        for _ in range(10):
            circuit.h(0)
        blocks = fuse(circuit)
        assert len(blocks) == 1
        assert len(blocks[0].gates) == 10

    def test_disjoint_gates_do_not_fuse(self) -> None:
        circuit = QuantumCircuit(4).h(0).h(1).h(2).h(3)
        blocks = fuse(circuit, max_fused_qubits=4)
        assert len(blocks) == 4

    def test_overlapping_two_qubit_gates_fuse(self) -> None:
        circuit = QuantumCircuit(3).cx(0, 1).cx(1, 2).cx(0, 1)
        blocks = fuse(circuit, max_fused_qubits=3)
        assert len(blocks) == 1
        assert blocks[0].qubits == (0, 1, 2)

    def test_width_limit_splits_blocks(self) -> None:
        circuit = QuantumCircuit(3).cx(0, 1).cx(1, 2)
        blocks = fuse(circuit, max_fused_qubits=2)
        assert len(blocks) == 2

    def test_invalid_limit_rejected(self) -> None:
        with pytest.raises(SimulationError):
            fuse(QuantumCircuit(1).h(0), max_fused_qubits=0)

    @given(seed=st.integers(0, 100))
    def test_gates_survive_in_order_for_every_limit(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        circuit = QuantumCircuit(5)
        for _ in range(30):
            if rng.random() < 0.5:
                a, b = rng.choice(5, size=2, replace=False)
                circuit.cx(int(a), int(b))
            else:
                circuit.h(int(rng.integers(5)))
        for k in (1, 2, 3, 4):
            flattened = [g for block in fuse(circuit, k) for g in block.gates]
            assert flattened == list(circuit.gates)


class TestFusedSemantics:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_fused_application_matches_dense(self, family: str) -> None:
        circuit = get_circuit(family, 8)
        state = StateVector(8)
        apply_blocks(state.amplitudes, circuit, max_fused_qubits=4)
        np.testing.assert_allclose(
            state.amplitudes, simulate(circuit).amplitudes, atol=1e-9
        )

    @pytest.mark.parametrize("max_fused_qubits", [1, 2, 3, 5])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_width_limit_matches_dense(
        self, family: str, max_fused_qubits: int
    ) -> None:
        # Each limit changes the block boundaries and the size of the
        # matrices ``apply_matrix`` sees; the state must not change.
        circuit = get_circuit(family, 8)
        state = StateVector(8)
        apply_blocks(state.amplitudes, circuit, max_fused_qubits)
        np.testing.assert_allclose(
            state.amplitudes, simulate(circuit).amplitudes, atol=1e-9
        )

    def test_block_matrix_is_unitary(self) -> None:
        circuit = get_circuit("qft", 6)
        for block in fuse(circuit, 3):
            matrix = block.matrix()
            np.testing.assert_allclose(
                matrix @ matrix.conj().T,
                np.eye(matrix.shape[0]),
                atol=1e-10,
            )

    def test_block_matrix_composition_order(self) -> None:
        # t after h on one qubit: fused matrix must be T @ H, not H @ T.
        circuit = QuantumCircuit(1).h(0).t(0)
        block = fuse(circuit, 1)[0]
        from repro.circuits.gates import Gate

        expected = Gate("t", (0,)).matrix() @ Gate("h", (0,)).matrix()
        np.testing.assert_allclose(block.matrix(), expected, atol=1e-12)

    @given(seed=st.integers(0, 40))
    def test_random_circuits_fused_exactly(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        circuit = QuantumCircuit(5)
        for _ in range(25):
            if rng.random() < 0.4:
                a, b = rng.choice(5, size=2, replace=False)
                circuit.cx(int(a), int(b))
            else:
                circuit.add(
                    ["h", "t", "sx"][rng.integers(3)], int(rng.integers(5))
                )
        state = StateVector(5)
        apply_blocks(state.amplitudes, circuit, max_fused_qubits=3)
        np.testing.assert_allclose(
            state.amplitudes, simulate(circuit).amplitudes, atol=1e-10
        )

