"""Tests for the Aaronson-Gottesman stabilizer engine.

Cross-validation strategy: the dense state of a Clifford circuit must be a
+1 eigenvector of every tableau stabilizer (and the measurement statistics
must match the dense probabilities).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import bv, get_circuit
from repro.errors import SimulationError
from repro.planner import run_backend
from repro.stabilizer import (
    CLIFFORD_GATES,
    StabilizerState,
    is_clifford_circuit,
    simulate_clifford,
)
from repro.statevector.expectation import PauliString, apply_pauli
from repro.statevector.state import simulate


def assert_stabilizes(circuit: QuantumCircuit) -> None:
    """Every tableau stabilizer must fix the dense state with its sign."""
    tableau = simulate_clifford(circuit)
    dense = simulate(circuit).amplitudes
    for sign, labels in tableau.stabilizer_strings():
        string = PauliString(
            tuple((q, label) for q, label in enumerate(labels) if label != "I")
        )
        np.testing.assert_allclose(
            apply_pauli(dense, string), sign * dense, atol=1e-10,
            err_msg=f"{circuit.name}: stabilizer {sign:+d}{labels}",
        )


def random_clifford_circuit(seed: int, num_qubits: int = 5, gates: int = 40) -> QuantumCircuit:
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits)
    singles = ["h", "s", "sdg", "x", "y", "z"]
    for _ in range(gates):
        kind = rng.integers(0, 9)
        if kind < 6:
            circuit.add(singles[kind], int(rng.integers(num_qubits)))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            name = ("cx", "cz", "swap")[kind - 6]
            circuit.add(name, int(a), int(b))
    return circuit


class TestCrossValidation:
    @pytest.mark.parametrize("family", ["gs", "hlf"])
    def test_clifford_benchmarks(self, family: str) -> None:
        assert_stabilizes(get_circuit(family, 8))

    def test_bv_is_clifford(self) -> None:
        circuit = bv(8, secret=0b1010101)
        assert is_clifford_circuit(circuit)
        assert_stabilizes(circuit)

    @given(seed=st.integers(0, 80))
    def test_random_clifford_circuits(self, seed: int) -> None:
        assert_stabilizes(random_clifford_circuit(seed))

    def test_bell_stabilizers(self) -> None:
        tableau = simulate_clifford(QuantumCircuit(2).h(0).cx(0, 1))
        assert set(tableau.stabilizer_strings()) == {(1, "XX"), (1, "ZZ")}

    def test_minus_state_sign(self) -> None:
        tableau = simulate_clifford(QuantumCircuit(1).x(0).h(0))
        assert tableau.stabilizer_strings() == [(-1, "X")]


class TestMeasurement:
    def test_deterministic_outcomes(self) -> None:
        tableau = simulate_clifford(QuantumCircuit(2).x(1))
        assert tableau.measure(0) == 0
        assert tableau.measure(1) == 1

    def test_bell_correlations(self) -> None:
        rng = np.random.default_rng(7)
        outcomes = set()
        for _ in range(50):
            tableau = simulate_clifford(QuantumCircuit(2).h(0).cx(0, 1))
            a, b = tableau.measure(0, rng), tableau.measure(1, rng)
            assert a == b
            outcomes.add(a)
        assert outcomes == {0, 1}  # both branches occur

    def test_plus_state_marginal_is_fair(self) -> None:
        rng = np.random.default_rng(11)
        ones = sum(
            simulate_clifford(QuantumCircuit(1).h(0)).measure(0, rng)
            for _ in range(400)
        )
        assert 140 < ones < 260

    def test_collapse_is_sticky(self) -> None:
        rng = np.random.default_rng(3)
        tableau = simulate_clifford(QuantumCircuit(1).h(0))
        first = tableau.measure(0, rng)
        for _ in range(5):
            assert tableau.measure(0, rng) == first

    def test_measure_all_matches_dense_support(self) -> None:
        circuit = get_circuit("gs", 6)
        dense_probs = np.abs(simulate(circuit).amplitudes) ** 2
        rng = np.random.default_rng(5)
        for _ in range(20):
            outcome = simulate_clifford(circuit).measure_all(rng)
            assert dense_probs[outcome] > 1e-12

    def test_expectation_z(self) -> None:
        assert simulate_clifford(QuantumCircuit(1).x(0)).expectation_z(0) == -1.0
        assert StabilizerState(1).expectation_z(0) == 1.0
        assert simulate_clifford(QuantumCircuit(1).h(0)).expectation_z(0) == 0.0

    @staticmethod
    def _arrays(tableau: StabilizerState) -> list[tuple[int, bytes]]:
        """Identity and content of ``x``, ``z``, ``r``."""
        return [(id(a), a.tobytes()) for a in (tableau.x, tableau.z, tableau.r)]

    def test_expectation_z_leaves_the_tableau_untouched(self) -> None:
        tableau = simulate_clifford(bv(9, secret=0b10110101))
        before = self._arrays(tableau)
        values = [tableau.expectation_z(q) for q in range(9)]
        assert values == [-1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0, -1.0, 0.0]
        assert self._arrays(tableau) == before

    def test_deterministic_measurement_keeps_the_arrays(self) -> None:
        tableau = simulate_clifford(QuantumCircuit(3).x(1).cx(1, 2))
        before = self._arrays(tableau)
        assert tableau.measure_all() == 0b110
        assert self._arrays(tableau) == before

    @pytest.mark.parametrize("family", ["bv", "gs", "hlf"])
    def test_measure_all_outcomes_are_the_parents(self, family: str) -> None:
        # Outcomes of the vstack-a-scratch-row implementation this
        # replaced, per width 8-13, for generator seeds 0-4.
        for width, pinned in MEASURE_ALL_AT_PARENT[family].items():
            tableau = simulate_clifford(get_circuit(family, width))
            outcomes = [
                tableau.copy().measure_all(np.random.default_rng(seed))
                for seed in range(5)
            ]
            assert outcomes == pinned, f"{family}_{width}"


MEASURE_ALL_AT_PARENT = {
    "bv": {
        8: [255, 127, 255, 255, 255], 9: [511, 255, 511, 511, 511],
        10: [1023, 511, 1023, 1023, 1023], 11: [2047, 1023, 2047, 2047, 2047],
        12: [4095, 2047, 4095, 4095, 4095], 13: [8191, 4095, 8191, 8191, 8191],
    },
    "gs": {
        8: [7, 206, 33, 225, 127], 9: [7, 206, 33, 225, 127],
        10: [519, 206, 545, 225, 639], 11: [1543, 1230, 1569, 225, 639],
        12: [3591, 1230, 3617, 225, 639], 13: [7687, 1230, 7713, 4321, 4735],
    },
    "hlf": {
        8: [23, 30, 1, 1, 63], 9: [23, 30, 385, 385, 479],
        10: [39, 54, 289, 289, 503], 11: [1047, 398, 1105, 465, 1279],
        12: [1543, 3278, 1569, 2273, 2687], 13: [4103, 2254, 4129, 2273, 6271],
    },
}


def per_shot_counts(
    state: StabilizerState, shots: int, rng: np.random.Generator
) -> dict[int, int]:
    """The sampler `sample_counts` replaced: collapse a copy per shot."""
    counts: dict[int, int] = {}
    for _ in range(shots):
        outcome = state.copy().measure_all(rng)
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts


def assert_same_counts(state: StabilizerState, shots: int, seed: int) -> None:
    """Equal dicts in equal iteration order, and equal generator state after."""
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    new = state.sample_counts(shots, new_rng)
    old = per_shot_counts(state, shots, old_rng)
    assert list(new.items()) == list(old.items())
    assert all(type(k) is int and type(v) is int for k, v in new.items())
    assert new_rng.integers(1 << 62) == old_rng.integers(1 << 62)


@st.composite
def clifford_circuits(draw) -> QuantumCircuit:
    """Random circuits over the engine's whole gate set, widths 1-12."""
    width = draw(st.integers(1, 12))
    names = sorted(CLIFFORD_GATES - ({"cx", "cz", "swap"} if width == 1 else set()))
    circuit = QuantumCircuit(width)
    for name in draw(st.lists(st.sampled_from(names), max_size=60)):
        if name in ("cx", "cz", "swap"):
            a = draw(st.integers(0, width - 1))
            b = draw(st.integers(0, width - 2))
            circuit.add(name, a, b + (b >= a))
        else:
            circuit.add(name, draw(st.integers(0, width - 1)))
    return circuit


class TestSampleCounts:
    # Shots are drawn log-uniformly from 1-2048: the per-shot reference
    # costs 0.1-0.5 ms a shot, and the suite should not feel this test.
    @given(
        circuit=clifford_circuits(),
        shots=st.integers(0, 11).flatmap(lambda e: st.integers(1, 1 << e)),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_equals_the_per_shot_loop_on_random_circuits(
        self, circuit: QuantumCircuit, shots: int, seed: int
    ) -> None:
        assert_same_counts(simulate_clifford(circuit), shots, seed)

    @pytest.mark.parametrize("width", range(8, 14))
    @pytest.mark.parametrize("family", ["bv", "gs", "hlf"])
    def test_equals_the_per_shot_loop_on_the_clifford_families(
        self, family: str, width: int
    ) -> None:
        assert_same_counts(simulate_clifford(get_circuit(family, width)), 24, width)

    def test_counts_of_the_benchmark_matrix_are_the_parents(self) -> None:
        # sha256 over the 360 count dicts (items in iteration order) the
        # per-shot loop returned at the parent commit: bv/gs/hlf x widths
        # 8-13 x generator seeds 0-1 x sampling seeds 0-9 x 256 shots.
        digest = hashlib.sha256()
        for family in ("bv", "gs", "hlf"):
            for width in range(8, 14):
                for circuit_seed in (0, 1):
                    circuit = get_circuit(family, width, seed=circuit_seed)
                    execution = run_backend(circuit, "stabilizer")
                    for seed in range(10):
                        counts = execution.sample_counts(256, seed=seed)
                        digest.update(json.dumps(list(counts.items())).encode())
        assert digest.hexdigest() == (
            "73a21569c8ea665b48ff393169cb2d16626f27639f10adf6a34436e3400ea007"
        )

    def test_basis_state_consumes_no_random_bits(self) -> None:
        rng = np.random.default_rng(9)
        assert StabilizerState(5).sample_counts(100, rng) == {0: 100}
        assert rng.integers(1 << 62) == np.random.default_rng(9).integers(1 << 62)

    def test_edge_states(self) -> None:
        plus = QuantumCircuit(4)
        ghz = QuantumCircuit(4).h(0)
        for q in range(4):
            plus.h(q)
            if q:
                ghz.cx(0, q)
        minus = QuantumCircuit(2).x(0).h(0).x(1)  # stabilizers -X_0, -Z_1
        for circuit in (plus, ghz, minus):
            for seed in range(3):
                assert_same_counts(simulate_clifford(circuit), 200, seed)
        rng = np.random.default_rng(0)
        assert len(simulate_clifford(plus).sample_counts(4096, rng)) == 16
        assert set(simulate_clifford(ghz).sample_counts(64, rng)) == {0, 15}
        assert set(simulate_clifford(minus).sample_counts(64, rng)) == {2, 3}

    @pytest.mark.parametrize("family, width", [("ghz", 100), ("gs", 80)])
    def test_wide_registers_return_python_ints(self, family: str, width: int) -> None:
        state = simulate_clifford(get_circuit(family, width))
        counts = state.sample_counts(50, np.random.default_rng(4))
        assert sum(counts.values()) == 50
        assert all(type(outcome) is int for outcome in counts)
        assert max(counts) >= 1 << 64
        assert_same_counts(state, 3, 4)

    @pytest.mark.parametrize(
        "circuit",
        [get_circuit("bv", 9), get_circuit("gs", 10), get_circuit("hlf", 12)]
        + [random_clifford_circuit(seed, 3 + seed, 50) for seed in range(8)],
        ids=lambda circuit: circuit.name,
    )
    def test_agrees_with_the_dense_state(self, circuit: QuantumCircuit) -> None:
        # No reference sampler involved: a stabilizer state is uniform
        # over 2^k outcomes, k the number of random measurements.
        width, shots = circuit.num_qubits, 4096
        probabilities = np.abs(simulate(circuit).amplitudes) ** 2
        support = np.flatnonzero(probabilities > 1e-12)
        counts = simulate_clifford(circuit).sample_counts(
            shots, np.random.default_rng(17)
        )
        assert sum(counts.values()) == shots
        assert set(counts) <= set(support.tolist())
        assert len(counts) <= support.size
        for q in range(width):
            p_one = float(probabilities[support[(support >> q) & 1 == 1]].sum())
            sampled = sum(c for o, c in counts.items() if o >> q & 1) / shots
            sigma = np.sqrt(max(p_one * (1 - p_one), 0.0) / shots)
            assert abs(sampled - p_one) <= 6 * sigma + 1e-12

    def test_no_shot_is_measured_one_at_a_time(self, monkeypatch) -> None:
        from repro.core.simulator import QGpuSimulator

        calls = {"measure": 0, "copy": 0}
        for name in calls:
            original = getattr(StabilizerState, name)

            def counted(self, *args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(StabilizerState, name, counted)
        result = QGpuSimulator(backend="auto", precision="auto").run(
            get_circuit("gs", 13)
        )
        assert result.backend == "stabilizer"
        assert sum(result.sample_counts(4096, seed=1).values()) == 4096
        assert calls["measure"] == 0 and calls["copy"] <= 1

    def test_no_per_shot_loop_in_the_tableau_or_planner_sources(self) -> None:
        import repro.planner
        import repro.stabilizer

        for package in (repro.planner, repro.stabilizer):
            for path in Path(package.__file__).parent.glob("*.py"):
                assert "range(shots)" not in path.read_text(), path


class TestValidation:
    def test_non_clifford_gate_rejected(self) -> None:
        with pytest.raises(SimulationError, match="not Clifford"):
            StabilizerState(1).apply(QuantumCircuit(1).t(0)[0])

    def test_non_clifford_circuit_rejected_with_names(self) -> None:
        circuit = QuantumCircuit(2).h(0).t(0).rzz(0.3, 0, 1)
        with pytest.raises(SimulationError, match="rzz"):
            simulate_clifford(circuit)

    def test_gate_set_contents(self) -> None:
        assert "cx" in CLIFFORD_GATES and "t" not in CLIFFORD_GATES

    def test_out_of_range_qubit(self) -> None:
        with pytest.raises(SimulationError):
            StabilizerState(2).measure(5)

    def test_copy_is_independent(self) -> None:
        original = simulate_clifford(QuantumCircuit(1).h(0))
        clone = original.copy()
        clone.measure(0, np.random.default_rng(0))
        assert np.any(original.x[1:, 0])  # original still superposed
