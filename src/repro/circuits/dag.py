"""Gate-dependency DAG.

Two gates depend on each other when they share a qubit and the later one must
observe the earlier one's effect.  The Q-GPU reordering pass (paper Section
IV-C) traverses this DAG in topological order, so the DAG exposes exactly the
queries Algorithms 2 and 3 need: per-node predecessor counts, descendant
iteration, and initially-ready nodes.

The builder applies the standard last-writer dependency rule: gate ``g``
depends on the most recent earlier gate touching each of ``g``'s qubits.
Optionally, *diagonal commutation* can be enabled: two diagonal gates commute
even on shared qubits, so no edge is needed between them.  The paper's
reordering is conservative (any shared qubit is a dependency), which is the
default here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.errors import CircuitError


@dataclass
class DagNode:
    """A gate occurrence inside a :class:`GateDag`.

    Attributes:
        index: Position of the gate in the original circuit order; also the
            node's identity inside the DAG.
        gate: The gate itself.
        predecessors: Indices of nodes that must execute before this one.
        successors: Indices of nodes that depend on this one.
    """

    index: int
    gate: Gate
    predecessors: set[int] = field(default_factory=set)
    successors: set[int] = field(default_factory=set)


class GateDag:
    """Dependency DAG over the gates of a circuit.

    Args:
        circuit: Source circuit; node ``k`` corresponds to ``circuit[k]``.
        commute_diagonals: When True, consecutive diagonal gates sharing a
            qubit are treated as independent (they commute exactly).  The
            paper's pass does not exploit this; it is provided for the
            ablation study.
    """

    def __init__(self, circuit: QuantumCircuit, commute_diagonals: bool = False) -> None:
        self.num_qubits = circuit.num_qubits
        self.commute_diagonals = commute_diagonals
        self.nodes: list[DagNode] = [
            DagNode(index, gate) for index, gate in enumerate(circuit)
        ]
        self._build(circuit)

    def _build(self, circuit: QuantumCircuit) -> None:
        # For the conservative rule, track the last gate on each qubit.  For
        # the diagonal-commutation rule, track the full run of trailing
        # diagonal gates per qubit plus the last non-diagonal gate, because a
        # non-diagonal gate must order after *all* of them.
        last_on_qubit: list[int | None] = [None] * self.num_qubits
        trailing_diagonals: list[list[int]] = [[] for _ in range(self.num_qubits)]

        for node in self.nodes:
            gate = node.gate
            deps: set[int] = set()
            for q in gate.qubits:
                if not self.commute_diagonals:
                    if last_on_qubit[q] is not None:
                        deps.add(last_on_qubit[q])
                    continue
                if gate.is_diagonal:
                    # Depends only on the last non-diagonal gate on q.
                    if last_on_qubit[q] is not None:
                        deps.add(last_on_qubit[q])
                else:
                    # Must follow every trailing diagonal gate and the last
                    # non-diagonal gate on q.
                    deps.update(trailing_diagonals[q])
                    if last_on_qubit[q] is not None:
                        deps.add(last_on_qubit[q])
            deps.discard(node.index)
            for dep in deps:
                node.predecessors.add(dep)
                self.nodes[dep].successors.add(node.index)
            for q in gate.qubits:
                if self.commute_diagonals and gate.is_diagonal:
                    trailing_diagonals[q].append(node.index)
                else:
                    last_on_qubit[q] = node.index
                    trailing_diagonals[q] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self) -> Iterator[DagNode]:
        return iter(self.nodes)

    def roots(self) -> list[int]:
        """Nodes with no predecessors, in circuit order."""
        return [node.index for node in self.nodes if not node.predecessors]

    def topological_order(self) -> list[int]:
        """A topological order of node indices (stable: ties by circuit order)."""
        remaining = [len(node.predecessors) for node in self.nodes]
        ready = [node.index for node in self.nodes if remaining[node.index] == 0]
        order: list[int] = []
        cursor = 0
        while cursor < len(ready):
            index = ready[cursor]
            cursor += 1
            order.append(index)
            for succ in sorted(self.nodes[index].successors):
                remaining[succ] -= 1
                if remaining[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.nodes):  # pragma: no cover - defensive
            raise CircuitError("dependency graph contains a cycle")
        return order

    def is_valid_order(self, order: list[int]) -> bool:
        """True when ``order`` is a permutation respecting all dependencies."""
        if sorted(order) != list(range(len(self.nodes))):
            return False
        position = {index: pos for pos, index in enumerate(order)}
        for node in self.nodes:
            for dep in node.predecessors:
                if position[dep] >= position[node.index]:
                    return False
        return True
