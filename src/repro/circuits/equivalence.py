"""Circuit equivalence checking.

A test oracle: the test suite uses it to certify that transformations
(transpiler passes, reordering) preserve a circuit's action, and no front
door imports it.  Two checks are offered:

* :func:`states_equivalent` - compare final states from ``|0...0>`` (fast;
  sufficient for simulator workloads, which always start there),
* :func:`unitaries_equivalent` - build both full unitaries and compare up
  to global phase (exact, exponential in width; fine below ~10 qubits).

Global-phase alignment is done pairwise through the overlap
``<a|b>`` (``tr(A^dagger B)`` for matrices): if ``b = e^{i phi} a`` the
overlap's phase is exactly ``phi``, and the rotation is numerically stable
(no dependence on which entry happens to be the largest).
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.errors import SimulationError
from repro.statevector.apply import apply_gate
from repro.statevector.state import simulate


def _align_phase(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Rotate ``other`` by the global phase that best matches ``reference``."""
    overlap = np.vdot(reference, other)
    if abs(overlap) < 1e-300:
        return other  # orthogonal; no phase can reconcile them
    return other * (overlap.conjugate() / abs(overlap))


def states_equivalent(
    a: QuantumCircuit, b: QuantumCircuit, atol: float = 1e-10,
    up_to_global_phase: bool = True,
) -> bool:
    """True when both circuits map ``|0...0>`` to the same state."""
    if a.num_qubits != b.num_qubits:
        return False
    state_a = simulate(a).amplitudes
    state_b = simulate(b).amplitudes
    if up_to_global_phase:
        state_b = _align_phase(state_a, state_b)
    return bool(np.allclose(state_a, state_b, atol=atol))


def circuit_unitary(circuit: QuantumCircuit) -> np.ndarray:
    """The full ``2^n x 2^n`` unitary of a circuit (small widths only)."""
    if circuit.num_qubits > 12:
        raise SimulationError(
            f"building a {circuit.num_qubits}-qubit unitary needs "
            f"{4**circuit.num_qubits * 16 / 2**30:.1f} GiB"
        )
    dim = 1 << circuit.num_qubits
    # Evolve every basis state: row `k` of `rows` holds U|k>, so the
    # unitary is the transpose.  Rows are contiguous, which the gate
    # kernels require to write in place.
    rows = np.eye(dim, dtype=np.complex128)
    for k in range(dim):
        for gate in circuit:
            apply_gate(rows[k], gate)
    return rows.T.copy()


def unitaries_equivalent(
    a: QuantumCircuit, b: QuantumCircuit, atol: float = 1e-10,
    up_to_global_phase: bool = True,
) -> bool:
    """True when both circuits implement the same unitary."""
    if a.num_qubits != b.num_qubits:
        return False
    u_a = circuit_unitary(a)
    u_b = circuit_unitary(b)
    if up_to_global_phase:
        u_b = _align_phase(u_a, u_b)
    return bool(np.allclose(u_a, u_b, atol=atol))
