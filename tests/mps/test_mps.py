"""Tests for the matrix-product-state engine."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import FAMILIES, get_circuit
from repro.circuits.library.extensions import ghz
from repro.errors import SimulationError
from repro.mps import MpsState, simulate_mps
from repro.statevector.state import simulate


class TestExactness:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_untruncated_equals_dense(self, family: str) -> None:
        circuit = get_circuit(family, 8)
        np.testing.assert_allclose(
            simulate_mps(circuit).to_dense(),
            simulate(circuit).amplitudes,
            atol=1e-9,
        )

    @given(seed=st.integers(0, 60))
    def test_random_circuits_exact(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        circuit = QuantumCircuit(5)
        for _ in range(25):
            kind = rng.integers(0, 4)
            if kind == 0:
                circuit.h(int(rng.integers(5)))
            elif kind == 1:
                circuit.rz(float(rng.uniform(-3, 3)), int(rng.integers(5)))
            elif kind == 2:
                a, b = rng.choice(5, size=2, replace=False)
                circuit.cx(int(a), int(b))
            else:
                a, b = rng.choice(5, size=2, replace=False)
                circuit.cp(0.7, int(a), int(b))
        np.testing.assert_allclose(
            simulate_mps(circuit).to_dense(),
            simulate(circuit).amplitudes,
            atol=1e-9,
        )

    def test_three_qubit_gates_via_decomposition(self) -> None:
        circuit = QuantumCircuit(4).h(0).h(1).ccx(0, 1, 3).ccz(1, 2, 3)
        np.testing.assert_allclose(
            simulate_mps(circuit).to_dense(),
            simulate(circuit).amplitudes,
            atol=1e-9,
        )

    def test_amplitude_equation9(self) -> None:
        circuit = get_circuit("qaoa", 6)
        state = simulate_mps(circuit)
        dense = simulate(circuit).amplitudes
        for index in (0, 1, 17, 63):
            assert state.amplitude(index) == pytest.approx(dense[index], abs=1e-10)

    def test_norm_is_one(self) -> None:
        state = simulate_mps(get_circuit("rqc", 8))
        assert state.norm() == pytest.approx(1.0, abs=1e-9)


class TestBondDimensions:
    def test_product_states_have_bond_one(self) -> None:
        # QFT of |0...0> is a product state; exact MPS discovers this.
        assert simulate_mps(get_circuit("qft", 8)).max_bond_dimension() == 1

    def test_ghz_needs_bond_two(self) -> None:
        state = simulate_mps(ghz(8))
        assert state.max_bond_dimension() == 2

    def test_entangling_circuits_grow_bonds(self) -> None:
        shallow = simulate_mps(get_circuit("rqc", 10, depth=2)).max_bond_dimension()
        deep = simulate_mps(get_circuit("rqc", 10, depth=10)).max_bond_dimension()
        assert deep >= shallow

    def test_compression_to_n_d_squared(self) -> None:
        # The paper's Equation 9 point: an MPS stores O(n d^2) numbers.
        state = simulate_mps(ghz(12))
        stored = sum(t.size for t in state.tensors)
        assert stored < 200  # vs 4096 dense amplitudes


class TestSampling:
    def test_ghz_samples_only_two_outcomes(self) -> None:
        rng = np.random.default_rng(0)
        counts = simulate_mps(ghz(10)).sample(300, rng)
        assert set(counts) == {0, (1 << 10) - 1}
        assert abs(counts[0] - 150) < 60

    def test_distribution_matches_dense(self) -> None:
        rng = np.random.default_rng(1)
        circuit = get_circuit("qaoa", 7)
        counts = simulate_mps(circuit).sample(8000, rng)
        dense = np.abs(simulate(circuit).amplitudes) ** 2
        empirical = np.zeros(128)
        for outcome, count in counts.items():
            empirical[outcome] = count / 8000
        assert 0.5 * np.abs(empirical - dense).sum() < 0.12  # TV distance

    def test_basis_state_sampling_deterministic(self) -> None:
        circuit = QuantumCircuit(5).x(1).x(4)
        counts = simulate_mps(circuit).sample(50)
        assert counts == {0b10010: 50}

    def test_shots_validation(self) -> None:
        with pytest.raises(SimulationError):
            simulate_mps(ghz(4)).sample(0)

    def test_sampling_respects_conditionals_on_entangled_chain(self) -> None:
        # Each sampled outcome of gs must be in the dense support.
        rng = np.random.default_rng(2)
        circuit = get_circuit("gs", 8)
        support = set(np.nonzero(np.abs(simulate(circuit).amplitudes) > 1e-12)[0])
        counts = simulate_mps(circuit).sample(200, rng)
        assert set(counts) <= support


class TestValidation:
    def test_bad_parameters(self) -> None:
        with pytest.raises(SimulationError):
            MpsState(0)

    def test_width_mismatch(self) -> None:
        with pytest.raises(SimulationError):
            MpsState(2).run(QuantumCircuit(3).h(0))

    def test_gate_out_of_range(self) -> None:
        with pytest.raises(SimulationError):
            MpsState(2).apply(QuantumCircuit(3).h(2)[0])

    def test_amplitude_bounds(self) -> None:
        with pytest.raises(SimulationError):
            MpsState(2).amplitude(4)


class TestExactOrRefuse:
    def test_memory_guard_names_gate_bond_and_bytes(self, monkeypatch) -> None:
        monkeypatch.setattr("repro.mps.state.MPS_BYTE_LIMIT", 1 << 20)
        with pytest.raises(SimulationError) as error:
            simulate_mps(get_circuit("hchain", 16))
        message = str(error.value)
        assert re.search(r"at gate \d+: bond \d+ between sites \d+ and \d+", message)
        assert re.search(r"to \d+ bytes, past the 1048576-byte limit", message)

    def test_limit_is_the_dense_engines_largest_state(self) -> None:
        from repro.mps.state import MPS_BYTE_LIMIT
        from repro.planner import DENSE_QUBIT_LIMIT

        assert MPS_BYTE_LIMIT == 16 * 2**DENSE_QUBIT_LIMIT == 1 << 30

    def test_svd_retried_once_on_the_conjugate_transpose(self, monkeypatch) -> None:
        circuit = get_circuit("qaoa", 8)
        svd = np.linalg.svd
        calls = []

        def fails_once(matrix, *args, **kwargs):
            calls.append(matrix)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", fails_once)
        state = simulate_mps(circuit)
        monkeypatch.undo()
        # The retry decomposed the conjugate transpose of the failed matrix.
        np.testing.assert_array_equal(calls[1], calls[0].conj().T)
        np.testing.assert_allclose(
            state.to_dense(), simulate(circuit).amplitudes, atol=1e-9
        )

    def test_svd_failing_twice_raises_simulation_error(self, monkeypatch) -> None:
        def never_converges(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", never_converges)
        with pytest.raises(SimulationError, match="SVD did not converge at gate 1"):
            simulate_mps(QuantumCircuit(2).h(0).cx(0, 1))
