"""Backend-equivalence edge cases at the boundaries the planner routes across.

Three seams where a wrong answer would hide behind a plausible one:

* the sparse engine's ``EPSILON`` support cutoff (does dropping
  sub-epsilon amplitudes change the answer?),
* the stabilizer tableau vs the dense engine on circuits mixing the whole
  Clifford gate set (same distribution, same Z expectations),
* forced MPS, which must return the dense state exactly (no bond cap
  truncates it).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import get_circuit
from repro.core.simulator import QGpuSimulator
from repro.planner import run_backend
from repro.sparse import simulate_sparse
from repro.sparse.state import EPSILON
from repro.statevector.state import simulate
from tests.strategies import circuits


class TestSparseEpsilonBoundary:
    def test_amplitude_below_epsilon_is_dropped(self) -> None:
        theta = 2 * math.asin(EPSILON / 10)
        state = simulate_sparse(QuantumCircuit(1).ry(theta, 0))
        assert state.support_size == 1
        assert 0 in state.amplitudes

    def test_amplitude_above_epsilon_is_kept(self) -> None:
        theta = 2 * math.asin(EPSILON * 10)
        state = simulate_sparse(QuantumCircuit(1).ry(theta, 0))
        assert state.support_size == 2

    def test_exact_cancellation_shrinks_support(self) -> None:
        # H-Z-H == X: the |0> amplitude cancels exactly and must leave the
        # support, not linger as an explicit zero.
        circuit = QuantumCircuit(3)
        for q in range(3):
            circuit.h(q).z(q).h(q)
        state = simulate_sparse(circuit)
        assert state.support_size == 1
        assert state.amplitudes[0b111] == pytest.approx(1.0)

    def test_dropped_support_still_matches_dense(self) -> None:
        # The dropped amplitudes are below EPSILON, so the dense state and
        # the truncated sparse state agree to far better than EPSILON^0.5.
        circuit = QuantumCircuit(4)
        tiny = 2 * math.asin(EPSILON / 3)
        for q in range(4):
            circuit.ry(tiny, q)
        circuit.cx(0, 1).cx(2, 3)
        np.testing.assert_allclose(
            simulate_sparse(circuit).to_dense(),
            simulate(circuit).amplitudes,
            atol=1e-12,
        )


class TestStabilizerVsDense:
    def _random_clifford(self, qubits: int, gates: int, seed: int) -> QuantumCircuit:
        rng = np.random.default_rng(seed)
        circuit = QuantumCircuit(qubits, name=f"clifford_{seed}")
        for _ in range(gates):
            kind = rng.integers(0, 6)
            q = int(rng.integers(qubits))
            if kind == 0:
                circuit.h(q)
            elif kind == 1:
                circuit.s(q)
            elif kind == 2:
                circuit.sdg(q)
            elif kind == 3:
                circuit.x(q)
            elif kind == 4:
                a, b = rng.choice(qubits, size=2, replace=False)
                circuit.cx(int(a), int(b))
            else:
                a, b = rng.choice(qubits, size=2, replace=False)
                circuit.cz(int(a), int(b))
        return circuit

    @pytest.mark.parametrize("seed", range(5))
    def test_z_expectations_match_dense(self, seed: int) -> None:
        circuit = self._random_clifford(6, 40, seed)
        probabilities = np.abs(simulate(circuit).amplitudes) ** 2
        execution = run_backend(circuit, "stabilizer")
        for qubit in range(6):
            bits = (np.arange(probabilities.size) >> qubit) & 1
            expected = float(np.sum(probabilities * (1 - 2 * bits)))
            assert execution.expectation_z(qubit) == pytest.approx(
                expected, abs=1e-9
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_samples_stay_on_the_dense_support(self, seed: int) -> None:
        # Stabilizer measurement outcomes are uniform over an affine coset;
        # every sampled index must carry dense probability 2^-k, never 0.
        circuit = self._random_clifford(5, 30, seed)
        probabilities = np.abs(simulate(circuit).amplitudes) ** 2
        support = {i for i, p in enumerate(probabilities) if p > 1e-12}
        counts = run_backend(circuit, "stabilizer").sample_counts(200, seed=seed)
        assert set(counts) <= support
        uniform = 1.0 / len(support)
        for index in counts:
            assert probabilities[index] == pytest.approx(uniform, rel=1e-6)


class TestForcedMpsIsExact:
    """Forced MPS answers with the dense state or not at all."""

    @given(circuit=circuits(max_qubits=10))
    def test_generated_circuits_match_dense(self, circuit: QuantumCircuit) -> None:
        _assert_mps_equals_dense(circuit)

    @pytest.mark.parametrize(
        "family, qubits",
        [("qaoa", 14), ("rqc", 14), ("hchain", 14), ("qaoa", 16)],
    )
    def test_families_past_the_old_bond_cap(self, family: str, qubits: int) -> None:
        # A bond cap of 64 left these at fidelity 0.84, 0.42, 0.56 and 0.0005.
        _assert_mps_equals_dense(get_circuit(family, qubits))


def _assert_mps_equals_dense(circuit: QuantumCircuit) -> None:
    result = QGpuSimulator(backend="mps").run(circuit)
    assert result.backend == "mps"
    mps = result.amplitudes
    dense = simulate(circuit).amplitudes
    np.testing.assert_allclose(mps, dense, atol=1e-8)
    assert abs(np.vdot(mps, dense)) ** 2 >= 1 - 1e-9
