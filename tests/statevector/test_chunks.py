"""Tests for the chunked state vector (the Fig. 1 mechanics)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import FAMILIES, get_circuit
from repro.errors import SimulationError
from repro.statevector.chunks import ChunkedStateVector, chunk_pair_groups
from repro.statevector.state import simulate


def run_chunked(circuit: QuantumCircuit, chunk_bits: int) -> ChunkedStateVector:
    """``circuit`` applied gate by gate to a fresh chunked state."""
    state = ChunkedStateVector(circuit.num_qubits, chunk_bits)
    for gate in circuit:
        state.apply(gate)
    return state


class TestChunkPairGroups:
    def test_inside_gate_yields_singletons(self) -> None:
        groups = chunk_pair_groups(num_qubits=5, chunk_bits=3, gate_qubits=(0, 2))
        assert groups == [(0,), (1,), (2,), (3,)]

    def test_paper_fig1_case2_pairing(self) -> None:
        # 7-qubit circuit, 8 chunks of 16 amplitudes, gate on q6 (top bit):
        # chunks pair as (0,4), (1,5), (2,6), (3,7) - the paper's example
        # pairs chunk_1 with chunk_3 for a gate on q5.
        groups = chunk_pair_groups(7, 4, (6,))
        assert groups == [(0, 4), (1, 5), (2, 6), (3, 7)]
        groups_q5 = chunk_pair_groups(7, 4, (5,))
        assert (1, 3) in groups_q5

    def test_two_outside_qubits_make_groups_of_four(self) -> None:
        groups = chunk_pair_groups(6, 2, (2, 4))
        assert all(len(g) == 4 for g in groups)
        assert groups[0] == (0, 1, 4, 5)  # bits 0 (q2) and 2 (q4)

    def test_mixed_inside_outside(self) -> None:
        groups = chunk_pair_groups(6, 3, (1, 4))
        assert all(len(g) == 2 for g in groups)
        flattened = sorted(i for g in groups for i in g)
        assert flattened == list(range(8))

    def test_every_chunk_appears_exactly_once(self) -> None:
        groups = chunk_pair_groups(8, 3, (5, 6, 7))
        flattened = sorted(i for g in groups for i in g)
        assert flattened == list(range(32))


class TestChunkedExecution:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_chunked_equals_dense_for_every_family(self, family: str) -> None:
        circuit = get_circuit(family, 9)
        dense = simulate(circuit).amplitudes
        chunked = run_chunked(circuit, 4).to_dense()
        np.testing.assert_allclose(chunked, dense, atol=1e-12)

    @given(
        chunk_bits=st.integers(1, 6),
        seed=st.integers(0, 200),
    )
    def test_chunked_equals_dense_random_circuits(
        self, chunk_bits: int, seed: int
    ) -> None:
        rng = np.random.default_rng(seed)
        num_qubits = 6
        circuit = QuantumCircuit(num_qubits)
        for _ in range(25):
            kind = rng.integers(0, 3)
            if kind == 0:
                circuit.h(int(rng.integers(num_qubits)))
            elif kind == 1:
                a, b = rng.choice(num_qubits, size=2, replace=False)
                circuit.cx(int(a), int(b))
            else:
                circuit.rz(float(rng.uniform(-3, 3)), int(rng.integers(num_qubits)))
        dense = simulate(circuit).amplitudes
        chunked = run_chunked(circuit, chunk_bits).to_dense()
        np.testing.assert_allclose(chunked, dense, atol=1e-12)

    def test_three_qubit_gate_across_chunks(self) -> None:
        circuit = QuantumCircuit(6).h(0).h(4).h(5).ccx(4, 5, 1)
        dense = simulate(circuit).amplitudes
        chunked = run_chunked(circuit, 2).to_dense()
        np.testing.assert_allclose(chunked, dense, atol=1e-12)


class TestConversions:
    def test_from_dense_round_trip(self, rng) -> None:
        amplitudes = rng.normal(size=16) + 1j * rng.normal(size=16)
        chunked = ChunkedStateVector.from_dense(amplitudes.astype(np.complex128), 2)
        np.testing.assert_array_equal(chunked.to_dense(), amplitudes)

    def test_from_dense_rejects_non_power_of_two(self) -> None:
        with pytest.raises(SimulationError):
            ChunkedStateVector.from_dense(np.zeros(6, dtype=np.complex128), 1)

    def test_initial_state_single_nonzero_chunk(self) -> None:
        state = ChunkedStateVector(5, 2)
        assert not state.chunk_is_zero(0)
        assert all(state.chunk_is_zero(i) for i in range(1, state.num_chunks))

    def test_chunk_is_zero_with_tolerance(self) -> None:
        state = ChunkedStateVector(4, 2)
        state.chunks[1][0] = 1e-12
        assert not state.chunk_is_zero(1)
        assert state.chunk_is_zero(1, tolerance=1e-9)


class TestChunkedSampling:
    def test_matches_dense_distribution(self) -> None:
        circuit = get_circuit("qaoa", 8)
        chunked = run_chunked(circuit, 3)
        rng = np.random.default_rng(3)
        counts = chunked.sample(8000, rng)
        dense = np.abs(simulate(circuit).amplitudes) ** 2
        empirical = np.zeros(256)
        for outcome, count in counts.items():
            empirical[outcome] = count / 8000
        assert 0.5 * np.abs(empirical - dense).sum() < 0.12

    def test_basis_state_sampling(self) -> None:
        circuit = QuantumCircuit(6).x(1).x(5)
        chunked = run_chunked(circuit, 2)
        assert chunked.sample(25) == {0b100010: 25}

    def test_zero_chunks_never_sampled(self) -> None:
        circuit = get_circuit("iqp", 8)
        chunked = run_chunked(circuit, 3)
        dense = simulate(circuit).amplitudes
        support = set(np.nonzero(np.abs(dense) > 1e-12)[0])
        counts = chunked.sample(300, np.random.default_rng(1))
        assert set(counts) <= support

    def test_shots_validation(self) -> None:
        with pytest.raises(SimulationError):
            ChunkedStateVector(4, 2).sample(0)


class TestValidation:
    def test_chunk_bits_bounds(self) -> None:
        with pytest.raises(SimulationError):
            ChunkedStateVector(4, 0)
        with pytest.raises(SimulationError):
            ChunkedStateVector(4, 5)

    def test_width_limit(self) -> None:
        with pytest.raises(SimulationError):
            ChunkedStateVector(27, 10)
