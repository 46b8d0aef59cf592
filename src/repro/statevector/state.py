"""Dense (monolithic) state-vector simulator.

This is the functional reference engine: exact Schroedinger-style simulation
with a single in-memory ``complex128`` vector.  It is used to validate the
chunked engine, to generate the amplitude snapshots of the paper's Fig. 7 and
Fig. 10, and to measure per-family GFC compression ratios at tractable sizes.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.errors import SimulationError
from repro.statevector.apply import apply_gate
from repro.statevector.measure import marginal_probability


class StateVector:
    """A ``2^n`` complex amplitude vector with gate application.

    Args:
        num_qubits: Register width ``n``.
        initial: Optional initial amplitudes (copied); defaults to
            ``|0...0>``.
    """

    #: Refuse to allocate beyond this many qubits (2^28 amplitudes = 4 GiB).
    MAX_DENSE_QUBITS = 28

    def __init__(self, num_qubits: int, initial: np.ndarray | None = None) -> None:
        if num_qubits <= 0:
            raise SimulationError(f"num_qubits must be positive, got {num_qubits}")
        if num_qubits > self.MAX_DENSE_QUBITS:
            raise SimulationError(
                f"dense simulation of {num_qubits} qubits needs "
                f"{16 * 2**num_qubits / 2**30:.0f} GiB; use the structural "
                "(timed) simulator for large circuits"
            )
        self.num_qubits = num_qubits
        if initial is None:
            self.amplitudes = np.zeros(1 << num_qubits, dtype=np.complex128)
            self.amplitudes[0] = 1.0
        else:
            if initial.shape != (1 << num_qubits,):
                raise SimulationError(
                    f"initial state has {initial.shape}, expected {(1 << num_qubits,)}"
                )
            self.amplitudes = np.asarray(initial, dtype=np.complex128).copy()

    def copy(self) -> "StateVector":
        return StateVector(self.num_qubits, self.amplitudes)

    def apply(self, gate: Gate) -> "StateVector":
        """Apply one gate in place and return ``self`` for chaining."""
        for q in gate.qubits:
            if q >= self.num_qubits:
                raise SimulationError(
                    f"gate {gate} exceeds register width {self.num_qubits}"
                )
        apply_gate(self.amplitudes, gate)
        return self

    def run(self, circuit: QuantumCircuit) -> "StateVector":
        """Apply every gate of ``circuit`` in order."""
        if circuit.num_qubits != self.num_qubits:
            raise SimulationError(
                f"circuit width {circuit.num_qubits} != state width {self.num_qubits}"
            )
        for gate in circuit:
            self.apply(gate)
        return self

    # -- queries ---------------------------------------------------------

    def probabilities(self) -> np.ndarray:
        """Measurement probabilities ``|a_i|^2`` over the full basis."""
        return np.abs(self.amplitudes) ** 2

    def norm(self) -> float:
        """Euclidean norm of the state (1.0 for any valid evolution)."""
        return float(np.linalg.norm(self.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        """``|<self|other>|^2`` - 1.0 iff equal up to global phase."""
        if other.num_qubits != self.num_qubits:
            raise SimulationError("fidelity between different widths")
        return float(np.abs(np.vdot(self.amplitudes, other.amplitudes)) ** 2)

    def nonzero_fraction(self, tolerance: float = 1e-14) -> float:
        """Fraction of amplitudes with magnitude above ``tolerance``."""
        return float(np.mean(np.abs(self.amplitudes) > tolerance))

    # -- mid-circuit operations -------------------------------------------

    def measure(self, qubit: int, rng: np.random.Generator | None = None) -> int:
        """Projective measurement of ``qubit`` with collapse; returns 0/1.

        The paper's workloads measure only at the end (Section II-B), but
        the engine supports mid-circuit measurement for general use.
        """
        if not 0 <= qubit < self.num_qubits:
            raise SimulationError(f"qubit {qubit} out of range")
        if rng is None:
            rng = np.random.default_rng()
        p_one = marginal_probability(self.amplitudes, qubit)
        outcome = int(rng.random() < p_one)
        probability = p_one if outcome else 1.0 - p_one
        if probability <= 0:
            raise SimulationError("measurement collapsed to zero norm")
        self.amplitudes.reshape(-1, 2, 1 << qubit)[:, 1 - outcome, :] = 0.0
        self.amplitudes /= np.sqrt(probability)
        return outcome

    def reset(self, qubit: int, rng: np.random.Generator | None = None) -> "StateVector":
        """Measure-and-flip reset: leave ``qubit`` in ``|0>``."""
        outcome = self.measure(qubit, rng)
        if outcome:
            self.apply(Gate("x", (qubit,)))
        return self


def simulate(circuit: QuantumCircuit) -> StateVector:
    """Run ``circuit`` from ``|0...0>`` and return the final state."""
    return StateVector(circuit.num_qubits).run(circuit)
