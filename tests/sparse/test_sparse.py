"""Tests for the sparse state-vector engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import FAMILIES, get_circuit
from repro.circuits.library.extensions import ghz
from repro.core.liveness import LiveTracker
from repro.errors import SimulationError
from repro.sparse import SparseState, simulate_sparse
from repro.statevector.state import simulate


class TestExactness:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_dense_for_every_family(self, family: str) -> None:
        circuit = get_circuit(family, 8)
        np.testing.assert_allclose(
            simulate_sparse(circuit).to_dense(),
            simulate(circuit).amplitudes,
            atol=1e-10,
        )

    @given(seed=st.integers(0, 60))
    def test_random_circuits(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        circuit = QuantumCircuit(5)
        for _ in range(25):
            kind = rng.integers(0, 4)
            if kind == 0:
                circuit.h(int(rng.integers(5)))
            elif kind == 1:
                circuit.t(int(rng.integers(5)))
            elif kind == 2:
                a, b = rng.choice(5, size=2, replace=False)
                circuit.cx(int(a), int(b))
            else:
                a, b = rng.choice(5, size=2, replace=False)
                circuit.rzz(0.7, int(a), int(b))
        np.testing.assert_allclose(
            simulate_sparse(circuit).to_dense(),
            simulate(circuit).amplitudes,
            atol=1e-10,
        )

    def test_three_qubit_gate(self) -> None:
        circuit = QuantumCircuit(4).h(0).h(1).ccx(0, 1, 3)
        np.testing.assert_allclose(
            simulate_sparse(circuit).to_dense(),
            simulate(circuit).amplitudes,
            atol=1e-12,
        )

    def test_amplitude_lookup(self) -> None:
        state = simulate_sparse(ghz(6))
        dense = state.to_dense()
        assert dense[0] == pytest.approx(1 / np.sqrt(2))
        assert dense[1] == 0.0


class TestSupportTracking:
    def test_ghz_support_stays_two(self) -> None:
        state = simulate_sparse(ghz(12))
        assert state.support_size == 2

    def test_bv_support_small(self) -> None:
        from repro.circuits.library import bv

        # After the oracle+H layers the data register is a basis state.
        state = simulate_sparse(bv(10, secret=0b101010101))
        assert state.support_size == 2  # ancilla |-> branch

    def test_support_never_exceeds_involvement_bound(self) -> None:
        for family in ("gs", "iqp", "bv", "qft"):
            circuit = get_circuit(family, 9)
            tracker = LiveTracker(9)
            state = SparseState(9)
            for gate in circuit:
                tracker.observe(gate)
                state.apply(gate)
                assert state.support_size <= tracker.live_amplitudes, family

    def test_norm_preserved(self) -> None:
        state = simulate_sparse(get_circuit("qaoa", 8))
        assert state.norm() == pytest.approx(1.0, abs=1e-9)

    def test_epsilon_cleanup_keeps_support_exact(self) -> None:
        # h then h returns to |0>: the support must shrink back to 1.
        state = simulate_sparse(QuantumCircuit(1).h(0).h(0))
        assert state.support_size == 1


class TestValidation:
    def test_bad_width(self) -> None:
        with pytest.raises(SimulationError):
            SparseState(0)

    def test_width_mismatch(self) -> None:
        with pytest.raises(SimulationError):
            SparseState(2).run(QuantumCircuit(3).h(0))

    def test_gate_out_of_range(self) -> None:
        with pytest.raises(SimulationError):
            SparseState(2).apply(QuantumCircuit(3).h(2)[0])
