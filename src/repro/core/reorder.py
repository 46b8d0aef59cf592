"""Dependency-aware gate reordering - Algorithms 2 and 3 of the paper.

Both heuristics traverse the gate-dependency DAG in topological order and
choose, at each step, an executable gate that delays qubit involvement:

* **Greedy** (Algorithm 2): pick the ready gate introducing the fewest new
  qubits.
* **Forward-looking** (Algorithm 3): rank each ready gate by
  ``costCurrent + costLookAhead`` - the new qubits it introduces plus the
  minimum new qubits any gate ready *after* it would introduce.  This looks
  one step past ties and finds orders greedy misses (the paper's Fig. 8c).

The paper's pseudocode initialises both running minima to 0, which would
never admit a positive cost; the intended infinity-initialisation is used
here.  Ties are broken by original circuit position, making the pass
deterministic (the paper picks randomly among equals).

Reordering never violates a dependency edge, so the simulated final state is
bit-identical to the original order (validated in the test suite).
"""

from __future__ import annotations

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import GateDag
from repro.circuits.gates import qubit_mask
from repro.errors import CircuitError


def _node_masks(dag: GateDag) -> list[int]:
    """Qubit bitmask of every DAG node, by node index.

    The new qubits a gate would introduce (Algorithm 3 lines 3-6) are then
    ``(mask & ~involved).bit_count()`` against an involvement bitmask.
    """
    return [qubit_mask(node.gate.qubits) for node in dag.nodes]


def reorder_greedy(circuit: QuantumCircuit, commute_diagonals: bool = False) -> QuantumCircuit:
    """Greedy reordering (Algorithm 2).

    Args:
        circuit: Circuit to reorder.
        commute_diagonals: Build the DAG with the diagonal-commutation
            relaxation (ablation option; the paper uses the conservative
            DAG).

    Returns:
        A new circuit whose gate order respects every dependency.
    """
    dag = GateDag(circuit, commute_diagonals=commute_diagonals)
    pending = {node.index: len(node.predecessors) for node in dag}
    ready = dag.roots()
    masks = _node_masks(dag)
    involved = 0
    order: list[int] = []

    while ready:
        best_index = None
        best_cost = None
        for index in ready:
            cost = (masks[index] & ~involved).bit_count()
            if best_cost is None or cost < best_cost or (
                cost == best_cost and index < best_index
            ):
                best_cost = cost
                best_index = index
        ready.remove(best_index)
        order.append(best_index)
        involved |= masks[best_index]
        for successor in sorted(dag.nodes[best_index].successors):
            pending[successor] -= 1
            if pending[successor] == 0:
                ready.append(successor)

    if len(order) != len(dag):  # pragma: no cover - DAG is acyclic by build
        raise CircuitError("reordering failed to schedule every gate")
    return circuit.with_gates(
        (dag.nodes[index].gate for index in order), suffix=""
    )


def _look_ahead_cost(
    dag: GateDag,
    masks: list[int],
    candidate: int,
    ready: list[int],
    pending: dict[int, int],
    involved: int,
) -> tuple[int, int]:
    """Cost of Algorithm 3: new qubits now plus the cheapest next step.

    Returns ``(total cost, current cost)``: ties on the total prefer the
    gate that is free *right now* (the paper's Fig. 8c trace executes the
    zero-cost CNOT before an equal-total Hadamard).  Operates on copies;
    caller state is untouched.
    """
    cost_current = (masks[candidate] & ~involved).bit_count()
    uninvolved_after = ~(involved | masks[candidate])

    next_ready = [index for index in ready if index != candidate]
    for successor in dag.nodes[candidate].successors:
        if pending[successor] == 1:
            next_ready.append(successor)

    cost_look_ahead = 0
    if next_ready:
        cost_look_ahead = min(
            (masks[index] & uninvolved_after).bit_count() for index in next_ready
        )
    return cost_current + cost_look_ahead, cost_current


def reorder_forward_looking(
    circuit: QuantumCircuit, commute_diagonals: bool = False
) -> QuantumCircuit:
    """Forward-looking reordering (Algorithm 3)."""
    dag = GateDag(circuit, commute_diagonals=commute_diagonals)
    pending = {node.index: len(node.predecessors) for node in dag}
    ready = dag.roots()
    masks = _node_masks(dag)
    involved = 0
    order: list[int] = []

    while ready:
        best_index = None
        best_cost = None
        for index in ready:
            cost = _look_ahead_cost(dag, masks, index, ready, pending, involved)
            if best_cost is None or cost < best_cost or (
                cost == best_cost and index < best_index
            ):
                best_cost = cost
                best_index = index
        ready.remove(best_index)
        order.append(best_index)
        involved |= masks[best_index]
        for successor in sorted(dag.nodes[best_index].successors):
            pending[successor] -= 1
            if pending[successor] == 0:
                ready.append(successor)

    if len(order) != len(dag):  # pragma: no cover - DAG is acyclic by build
        raise CircuitError("reordering failed to schedule every gate")
    return circuit.with_gates(
        (dag.nodes[index].gate for index in order), suffix=""
    )


STRATEGIES = {
    "original": lambda circuit, commute_diagonals=False: circuit,
    "greedy": reorder_greedy,
    "forward_looking": reorder_forward_looking,
}


def reorder(
    circuit: QuantumCircuit, strategy: str = "forward_looking",
    commute_diagonals: bool = False,
) -> QuantumCircuit:
    """Reorder ``circuit`` with the named strategy.

    Args:
        circuit: Circuit to reorder.
        strategy: ``"original"`` (no-op), ``"greedy"`` or
            ``"forward_looking"`` (the Q-GPU default, Section V).
        commute_diagonals: DAG relaxation flag (ablation).
    """
    if strategy not in STRATEGIES:
        raise CircuitError(
            f"unknown reorder strategy {strategy!r}; pick one of {sorted(STRATEGIES)}"
        )
    return STRATEGIES[strategy](circuit, commute_diagonals=commute_diagonals)
