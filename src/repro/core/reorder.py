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

import threading
from collections import OrderedDict

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


def _greedy_order(dag: GateDag) -> list[int]:
    """Algorithm 2's schedule: node indices in execution order."""
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
    return order


def _forward_looking_order(dag: GateDag) -> list[int]:
    """Algorithm 3's schedule: node indices in execution order.

    Each ready gate ``c`` is ranked by ``(costCurrent + costLookAhead,
    costCurrent)``, ties by circuit position; a tie on the total prefers
    the gate that is free *right now* (the paper's Fig. 8c trace executes
    the zero-cost CNOT before an equal-total Hadamard).  The look-ahead is
    the fewest new qubits any gate ready after ``c`` would introduce: the
    other ready gates plus ``c``'s successors that ``c`` alone still
    blocks.

    Against ``involved | mask[c]`` a ready gate ``i`` introduces
    ``popcount(u_i & ~mask[c])`` new qubits, where ``u_i = mask[i] &
    ~involved``.  So the ready gates are counted once per step by their
    distinct ``u_i`` with multiplicity, and each candidate takes the
    minimum over those, skipping its own ``u_c`` only when no other ready
    gate shares it (a shared one costs 0, since ``u_c & ~mask[c]`` is
    empty).
    """
    pending = {node.index: len(node.predecessors) for node in dag}
    ready = dag.roots()
    masks = _node_masks(dag)
    successors = [sorted(node.successors) for node in dag.nodes]
    involved = 0
    order: list[int] = []

    while ready:
        uninvolved = ~involved
        counts: dict[int, int] = {}
        for index in ready:
            fresh = masks[index] & uninvolved
            counts[fresh] = counts.get(fresh, 0) + 1
        # Fewest new qubits first: ``fresh`` loses at most ``own`` to the
        # candidate's mask, so once ``popcount(fresh) - popcount(own)``
        # reaches the running minimum no later class can lower it.
        classes = sorted(
            (fresh.bit_count(), fresh, count) for fresh, count in counts.items()
        )
        best_index = None
        best_cost = None
        for index in ready:
            mask = masks[index]
            own = mask & uninvolved
            cost_current = own.bit_count()
            look_ahead = None
            for weight, fresh, count in classes:
                if look_ahead is not None and weight - cost_current >= look_ahead:
                    break
                if fresh == own and count == 1:
                    continue
                new = (fresh & ~mask).bit_count()
                if look_ahead is None or new < look_ahead:
                    look_ahead = new
                    if new == 0:
                        break
            if look_ahead != 0:
                uninvolved_after = uninvolved & ~mask
                for successor in successors[index]:
                    if pending[successor] == 1:
                        new = (masks[successor] & uninvolved_after).bit_count()
                        if look_ahead is None or new < look_ahead:
                            look_ahead = new
                            if new == 0:
                                break
            cost = (cost_current + (look_ahead or 0), cost_current)
            if best_cost is None or cost < best_cost or (
                cost == best_cost and index < best_index
            ):
                best_cost = cost
                best_index = index
        ready.remove(best_index)
        order.append(best_index)
        involved |= masks[best_index]
        for successor in successors[best_index]:
            pending[successor] -= 1
            if pending[successor] == 0:
                ready.append(successor)
    return order


_ORDERS = {"greedy": _greedy_order, "forward_looking": _forward_looking_order}


def _schedule(
    circuit: QuantumCircuit, strategy: str, commute_diagonals: bool
) -> list[int]:
    dag = GateDag(circuit, commute_diagonals=commute_diagonals)
    order = _ORDERS[strategy](dag)
    if len(order) != len(dag):  # pragma: no cover - DAG is acyclic by build
        raise CircuitError("reordering failed to schedule every gate")
    return order


def _permuted(circuit: QuantumCircuit, order) -> QuantumCircuit:
    gates = circuit.gates
    return circuit.with_gates((gates[index] for index in order), suffix="")


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
    return _permuted(circuit, _schedule(circuit, "greedy", commute_diagonals))


def reorder_forward_looking(
    circuit: QuantumCircuit, commute_diagonals: bool = False
) -> QuantumCircuit:
    """Forward-looking reordering (Algorithm 3)."""
    return _permuted(
        circuit, _schedule(circuit, "forward_looking", commute_diagonals)
    )


STRATEGIES = ("original", *_ORDERS)

#: Schedules ``reorder`` remembers, least recently used evicted first.
MEMO_SIZE = 256
_memo: OrderedDict[tuple[str, str, bool], tuple[int, ...]] = OrderedDict()
#: Service workers reorder on threads; the memo's reads move entries.
_memo_lock = threading.Lock()


def reorder(
    circuit: QuantumCircuit, strategy: str = "forward_looking",
    commute_diagonals: bool = False,
) -> QuantumCircuit:
    """Reorder ``circuit`` with the named strategy.

    The schedule - the permutation of source gate indices - is remembered
    per ``(circuit.fingerprint(), strategy, commute_diagonals)`` in a
    bounded LRU, so the paper's experiments derive each reordering once.
    Only the permutation is kept: every call returns a fresh circuit, and
    ``"original"`` returns ``circuit`` itself.

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
    if strategy == "original":
        return circuit
    key = (circuit.fingerprint(), strategy, commute_diagonals)
    with _memo_lock:
        order = _memo.get(key)
        if order is not None:
            _memo.move_to_end(key)
    if order is None:
        order = tuple(_schedule(circuit, strategy, commute_diagonals))
        with _memo_lock:
            _memo[key] = order
            while len(_memo) > MEMO_SIZE:
                _memo.popitem(last=False)
    return _permuted(circuit, order)
