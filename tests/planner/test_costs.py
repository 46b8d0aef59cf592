"""Tests for the planner's per-backend cost estimator."""

from __future__ import annotations

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import get_circuit
from repro.errors import AnalysisError
from repro.mps.state import MPS_BYTE_LIMIT
from repro.planner import (
    BACKENDS,
    DENSE_QUBIT_LIMIT,
    all_backend_costs,
    analyze_circuit,
    backend_cost,
)


def _features(family: str, qubits: int):
    return analyze_circuit(get_circuit(family, qubits))


class TestFeasibility:
    def test_unknown_backend_raises(self) -> None:
        with pytest.raises(AnalysisError, match="unknown backend"):
            backend_cost(_features("bv", 8), "tensorflow")

    def test_stabilizer_infeasible_for_non_clifford(self) -> None:
        cost = backend_cost(_features("qft", 8), "stabilizer")
        assert not cost.feasible
        assert "Clifford" in cost.reason

    def test_stabilizer_feasible_for_clifford(self) -> None:
        cost = backend_cost(_features("bv", 12), "stabilizer")
        assert cost.feasible
        assert cost.seconds > 0

    def test_statevector_infeasible_beyond_qubit_limit(self) -> None:
        circuit = QuantumCircuit(DENSE_QUBIT_LIMIT + 2).h(0)
        cost = backend_cost(analyze_circuit(circuit), "statevector")
        assert not cost.feasible
        assert str(DENSE_QUBIT_LIMIT) in cost.reason

    def test_every_backend_priced(self) -> None:
        costs = all_backend_costs(_features("qft", 10))
        assert tuple(c.backend for c in costs) == BACKENDS
        assert all(c.memory_bytes > 0 for c in costs)


class TestOrdering:
    def test_clifford_prefers_stabilizer(self) -> None:
        features = _features("bv", 16)
        stab = backend_cost(features, "stabilizer")
        dense = backend_cost(features, "statevector")
        assert stab.seconds < dense.seconds

    def test_sparse_support_beats_dense(self) -> None:
        features = _features("w", 14)
        sparse = backend_cost(features, "sparse")
        dense = backend_cost(features, "statevector")
        assert sparse.feasible
        assert sparse.seconds < dense.seconds

    def test_dense_support_prices_sparse_out(self) -> None:
        features = _features("qft", 12)
        sparse = backend_cost(features, "sparse")
        dense = backend_cost(features, "statevector")
        assert dense.seconds < sparse.seconds


class TestPrecision:
    def test_single_is_cheaper_and_smaller(self) -> None:
        features = _features("qft", 12)
        double = backend_cost(features, "statevector", precision="double")
        single = backend_cost(features, "statevector", precision="single")
        assert single.seconds < double.seconds
        assert single.memory_bytes == double.memory_bytes // 2


class TestForcedMps:
    def test_feasible_past_the_dense_limit_with_memory_capped(self) -> None:
        # The qft_30 proxy (bond 2^15) would price 2.88 TiB; the engine's
        # own limit is the most an MPS run can hold.
        cost = backend_cost(_features("qft", 30), "mps")
        assert cost.feasible
        assert cost.memory_bytes == MPS_BYTE_LIMIT
        assert cost.reason == ""

    def test_small_bond_prices_the_proxy_tensors(self) -> None:
        circuit = QuantumCircuit(6)
        for q in range(6):
            circuit.h(q)
        cost = backend_cost(analyze_circuit(circuit), "mps")
        assert cost.feasible
        assert cost.memory_bytes == 3 * 6 * 2 * 16
