"""Tests for the planner's static circuit analysis."""

from __future__ import annotations

import sys

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import get_circuit
from repro.planner import analyze_circuit
from repro.planner.features import PROBE_SUPPORT_CEILING


class TestBasics:
    def test_empty_circuit_is_clifford_with_unit_support(self) -> None:
        features = analyze_circuit(QuantumCircuit(4))
        assert features.is_clifford
        assert features.num_gates == 0
        assert features.probe_completed
        assert features.probe_support_peak == 1

    def test_counts_and_fractions(self) -> None:
        circuit = QuantumCircuit(3).h(0).t(0).cx(0, 1).rz(0.3, 2)
        features = analyze_circuit(circuit)
        assert features.num_qubits == 3
        assert features.num_gates == 4
        assert not features.is_clifford
        assert features.clifford_fraction == 0.5


class TestDeterminism:
    @pytest.mark.parametrize("family", ["bv", "qft", "w", "qaoa"])
    def test_same_circuit_same_features(self, family: str) -> None:
        circuit = get_circuit(family, 10)
        assert analyze_circuit(circuit) == analyze_circuit(circuit)


class TestCliffordDetection:
    def test_pure_clifford_families(self) -> None:
        for family in ("bv", "gs", "hlf", "ghz"):
            features = analyze_circuit(get_circuit(family, 10))
            assert features.is_clifford, family
            assert features.clifford_fraction == 1.0

    def test_mixed_circuit_not_clifford(self) -> None:
        features = analyze_circuit(get_circuit("qft", 8))
        assert not features.is_clifford
        assert features.clifford_fraction < 1.0


class TestSparseProbe:
    def test_sparse_circuit_probe_completes(self) -> None:
        # A W state keeps support O(n); the probe must see the whole run.
        features = analyze_circuit(get_circuit("w", 12))
        assert features.probe_completed
        assert features.probe_support_peak < 64
        # Priced at the probe's exact integral, far under the structural
        # bound's 2^12-amplitude window.
        assert features.sparse_ops < len(get_circuit("w", 12)) * 2 * 64

    def test_dense_circuit_probe_aborts_quickly(self) -> None:
        # 20 Hadamards blow the support ceiling after ~log2(ceiling) gates.
        circuit = QuantumCircuit(20)
        for q in range(20):
            circuit.h(q)
        features = analyze_circuit(circuit)
        assert not features.probe_completed
        assert features.probe_support_peak == 2 * PROBE_SUPPORT_CEILING
        # Fallback pricing switches to the structural bound integral:
        # gate k (0-based) involves qubits 0..k, a 2^(k+1) window, and
        # each window amplitude costs 2 entry updates.
        assert features.sparse_ops == sum((2 << k) * 2 for k in range(20))

    def test_support_bound_caps_at_register(self) -> None:
        features = analyze_circuit(get_circuit("qft", 9))
        assert features.support_bound_final <= 1 << 9


class TestBondProxy:
    def test_product_circuit_stays_bond_one(self) -> None:
        circuit = QuantumCircuit(6)
        for q in range(6):
            circuit.h(q)
        features = analyze_circuit(circuit)
        assert features.bond_estimate == 1

    def test_entangling_ladder_grows_bond(self) -> None:
        circuit = QuantumCircuit(8)
        for q in range(7):
            circuit.h(q).cx(q, q + 1)
        features = analyze_circuit(circuit)
        assert features.bond_estimate > 1

    def test_proxy_is_uncapped_up_to_the_exact_ceiling(self) -> None:
        # A qft_30 proxy reaches the middle cut's ceiling 2^15, although
        # the exact run keeps bond 1.
        features = analyze_circuit(get_circuit("qft", 30))
        assert features.bond_estimate == 1 << 15

    def test_work_integral_saturates_past_float_range(self) -> None:
        # Every gate spans all 799 cuts and doubles each bond, so the
        # middle cut reaches its ceiling 2^400 and (2 chi)^3 exceeds 2^1023.
        circuit = QuantumCircuit(800)
        for _ in range(400):
            circuit.cx(0, 799)
        features = analyze_circuit(circuit)
        assert features.bond_estimate == 1 << 400
        assert features.mps_ops == sys.float_info.max
