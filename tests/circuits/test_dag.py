"""Unit and property tests for the gate-dependency DAG."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import GateDag


def random_circuit(num_qubits: int, num_gates: int, seed: int) -> QuantumCircuit:
    rng = np.random.default_rng(seed)
    circ = QuantumCircuit(num_qubits)
    for _ in range(num_gates):
        if rng.random() < 0.5 and num_qubits >= 2:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circ.cx(int(a), int(b))
        else:
            circ.h(int(rng.integers(num_qubits)))
    return circ


class TestDependencies:
    def test_shared_qubit_creates_edge(self) -> None:
        circ = QuantumCircuit(2).h(0).cx(0, 1)
        dag = GateDag(circ)
        assert dag.nodes[1].predecessors == {0}
        assert dag.nodes[0].successors == {1}

    def test_disjoint_gates_are_independent(self) -> None:
        circ = QuantumCircuit(4).h(0).h(1).cx(2, 3)
        dag = GateDag(circ)
        assert all(not node.predecessors for node in dag)
        assert dag.roots() == [0, 1, 2]

    def test_last_writer_rule(self) -> None:
        circ = QuantumCircuit(2).h(0).h(0).h(0)
        dag = GateDag(circ)
        assert dag.nodes[2].predecessors == {1}

    def test_two_qubit_gate_collects_both_qubit_dependencies(self) -> None:
        circ = QuantumCircuit(3).h(0).h(1).cx(0, 1).h(2)
        dag = GateDag(circ)
        assert dag.nodes[2].predecessors == {0, 1}

    def test_fig8_gs5_dependency_structure(self) -> None:
        # Paper Fig. 8: gs_5 = 5 Hadamards then a CNOT chain; CNOT_6 depends
        # on the H gates of its qubits and CNOT_7 depends on CNOT_6.
        circ = QuantumCircuit(5)
        for q in range(5):
            circ.h(q)
        for q in range(4):
            circ.cx(q, q + 1)
        dag = GateDag(circ)
        assert dag.nodes[5].predecessors == {0, 1}  # CNOT(0,1) after H0, H1
        assert dag.nodes[6].predecessors == {5, 2}  # CNOT(1,2) after CNOT(0,1), H2
        assert dag.roots() == [0, 1, 2, 3, 4]


class TestTopologicalOrder:
    @given(seed=st.integers(0, 1000), num_gates=st.integers(1, 60))
    def test_topological_order_is_valid(self, seed: int, num_gates: int) -> None:
        circ = random_circuit(5, num_gates, seed)
        dag = GateDag(circ)
        order = dag.topological_order()
        assert dag.is_valid_order(order)

    def test_identity_order_is_valid(self) -> None:
        circ = random_circuit(4, 30, seed=7)
        dag = GateDag(circ)
        assert dag.is_valid_order(list(range(len(circ))))

    def test_violating_order_detected(self) -> None:
        circ = QuantumCircuit(2).h(0).cx(0, 1)
        dag = GateDag(circ)
        assert not dag.is_valid_order([1, 0])

    def test_non_permutation_rejected(self) -> None:
        circ = QuantumCircuit(2).h(0).cx(0, 1)
        dag = GateDag(circ)
        assert not dag.is_valid_order([0, 0])
        assert not dag.is_valid_order([0])


class TestDiagonalCommutation:
    def test_diagonal_gates_commute_when_enabled(self) -> None:
        circ = QuantumCircuit(2).rz(0.3, 0).rz(0.5, 0)
        conservative = GateDag(circ)
        relaxed = GateDag(circ, commute_diagonals=True)
        assert conservative.nodes[1].predecessors == {0}
        assert relaxed.nodes[1].predecessors == set()

    def test_non_diagonal_after_diagonals_depends_on_all(self) -> None:
        circ = QuantumCircuit(2).rz(0.3, 0).cp(0.2, 0, 1).h(0)
        relaxed = GateDag(circ, commute_diagonals=True)
        assert relaxed.nodes[2].predecessors == {0, 1}

    def test_diagonal_depends_on_last_non_diagonal(self) -> None:
        circ = QuantumCircuit(1).h(0).rz(0.1, 0).rz(0.2, 0)
        relaxed = GateDag(circ, commute_diagonals=True)
        assert relaxed.nodes[1].predecessors == {0}
        assert relaxed.nodes[2].predecessors == {0}

    @given(seed=st.integers(0, 500))
    def test_relaxed_dag_is_a_weaker_constraint_set(self, seed: int) -> None:
        # Every order the conservative DAG admits must also satisfy the
        # relaxed DAG (it can have *more* explicit edges - a non-diagonal
        # gate lists every trailing diagonal - but never stronger ordering).
        rng = np.random.default_rng(seed)
        circ = QuantumCircuit(4)
        for _ in range(40):
            k = rng.integers(0, 4)
            if k == 0:
                circ.h(int(rng.integers(4)))
            elif k == 1:
                circ.rz(0.3, int(rng.integers(4)))
            elif k == 2:
                a, b = rng.choice(4, size=2, replace=False)
                circ.cz(int(a), int(b))
            else:
                a, b = rng.choice(4, size=2, replace=False)
                circ.cx(int(a), int(b))
        relaxed_dag = GateDag(circ, commute_diagonals=True)
        conservative_order = GateDag(circ).topological_order()
        assert relaxed_dag.is_valid_order(conservative_order)
        assert relaxed_dag.is_valid_order(relaxed_dag.topological_order())
