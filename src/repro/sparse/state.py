"""Sparse (hash-map) state-vector simulation.

Stores only non-zero amplitudes in a dictionary keyed by basis index.
Where the paper's involvement pruning (Algorithm 1) uses a *structural*
upper bound on the non-zero set - cheap enough for a GPU scheduler - this
engine tracks the *exact* support, which makes it:

* the efficient engine for support-sparse workloads (BV, GHZ, Grover-style
  states with few amplitudes), and
* the ground truth for the "involvement-bound tightness" extension
  experiment: how much of what Q-GPU streams is actually zero-valued but
  structurally live?

Complexity per gate is O(support x 2^k): dense-support circuits degrade to
(slow) dense simulation, which is exactly the trade the analysis quantifies.
"""

from __future__ import annotations

import math

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.errors import SimulationError

#: Amplitudes with magnitude below this are dropped from the support.
EPSILON = 1e-14


class SparseState:
    """Dictionary-of-amplitudes state, initially ``|0...0>``.

    Attributes:
        num_qubits: Register width.
        amplitudes: ``{basis index: amplitude}`` over the support.
    """

    def __init__(self, num_qubits: int) -> None:
        if num_qubits <= 0:
            raise SimulationError("num_qubits must be positive")
        self.num_qubits = num_qubits
        self.amplitudes: dict[int, complex] = {0: 1.0 + 0.0j}

    # -- queries -----------------------------------------------------------

    @property
    def support_size(self) -> int:
        """Number of stored (non-zero) amplitudes."""
        return len(self.amplitudes)

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def to_dense(self) -> np.ndarray:
        if self.num_qubits > 24:
            raise SimulationError("to_dense beyond 24 qubits is not sensible")
        out = np.zeros(1 << self.num_qubits, dtype=np.complex128)
        for index, amplitude in self.amplitudes.items():
            out[index] = amplitude
        return out

    # -- evolution ------------------------------------------------------------

    def apply(self, gate: Gate) -> "SparseState":
        """Apply one gate over the support."""
        for q in gate.qubits:
            if q >= self.num_qubits:
                raise SimulationError(f"gate {gate} exceeds register width")
        if gate.is_diagonal:
            self._apply_diagonal(gate)
            return self
        self._apply_general(gate)
        return self

    def _apply_diagonal(self, gate: Gate) -> None:
        diag = np.diag(gate.matrix())
        qubits = gate.qubits
        updated: dict[int, complex] = {}
        for index, amplitude in self.amplitudes.items():
            local = 0
            for position, q in enumerate(qubits):
                local |= (index >> q & 1) << position
            value = amplitude * diag[local]
            if abs(value) > EPSILON:
                updated[index] = value
        self.amplitudes = updated

    def _apply_general(self, gate: Gate) -> None:
        matrix = gate.matrix()
        qubits = gate.qubits
        k = len(qubits)
        clear_mask = 0
        for q in qubits:
            clear_mask |= 1 << q

        # Group support members by their "base" (gate-qubit bits cleared);
        # each group is one independent 2^k-dimensional local vector.
        groups: dict[int, dict[int, complex]] = {}
        for index, amplitude in self.amplitudes.items():
            base = index & ~clear_mask
            local = 0
            for position, q in enumerate(qubits):
                local |= (index >> q & 1) << position
            groups.setdefault(base, {})[local] = amplitude

        updated: dict[int, complex] = {}
        for base, members in groups.items():
            local_in = np.zeros(1 << k, dtype=np.complex128)
            for local, amplitude in members.items():
                local_in[local] = amplitude
            local_out = matrix @ local_in
            for local in range(1 << k):
                value = local_out[local]
                if abs(value) <= EPSILON:
                    continue
                index = base
                for position, q in enumerate(qubits):
                    if local >> position & 1:
                        index |= 1 << q
                updated[index] = value
        self.amplitudes = updated

    def run(self, circuit: QuantumCircuit) -> "SparseState":
        if circuit.num_qubits != self.num_qubits:
            raise SimulationError("circuit width mismatch")
        for gate in circuit:
            self.apply(gate)
        return self



def simulate_sparse(circuit: QuantumCircuit) -> SparseState:
    """Run ``circuit`` from ``|0...0>`` on the sparse engine."""
    return SparseState(circuit.num_qubits).run(circuit)
