"""Uniform execution wrapper for the non-dense backends.

The dense chunked engine stays where it always was (inside
:class:`~repro.core.simulator.QGpuSimulator`); this module gives the
planner's other three choices - tableau, hash-map, MPS - one result
surface so the simulator, the batch service, and the CLI can treat a
routed run uniformly: deterministic sampling with a seed, a stable
content digest for result caching, and a dense view where the
representation supports one.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.errors import AnalysisError, SimulationError
from repro.mps.state import MpsState, simulate_mps
from repro.sparse.state import SparseState, simulate_sparse
from repro.stabilizer import StabilizerState, simulate_clifford

#: Widest register the wrappers will densify (matches the engines' own
#: ``to_dense`` guards).
DENSE_VIEW_LIMIT = 24


@dataclass
class BackendExecution:
    """A finished run on one of the non-dense backends.

    Attributes:
        backend: ``"stabilizer"``, ``"sparse"`` or ``"mps"``.
        num_qubits: Register width.
        state: The engine's native final state.
    """

    backend: str
    num_qubits: int
    state: Any = field(repr=False)

    def to_dense(self) -> np.ndarray:
        """The full ``2^n`` complex128 vector, where representable.

        Raises:
            SimulationError: For the stabilizer backend (a tableau has no
                amplitude view) or a register too wide to densify.
        """
        if self.backend == "stabilizer":
            raise SimulationError(
                "stabilizer tableau stores generators, not amplitudes; "
                "sample counts or Z expectations instead"
            )
        return self.state.to_dense()

    def sample_counts(self, shots: int, seed: int = 0) -> dict[int, int]:
        """Seed-deterministic measurement counts (basis index -> count)."""
        if shots <= 0:
            raise SimulationError(f"shots must be positive, got {shots}")
        rng = np.random.default_rng(seed)
        if self.backend == "stabilizer":
            return self.state.sample_counts(shots, rng)
        if self.backend == "sparse":
            indices = sorted(self.state.amplitudes)
            probs = np.array(
                [abs(self.state.amplitudes[i]) ** 2 for i in indices]
            )
            total = probs.sum()
            if not np.isclose(total, 1.0, atol=1e-6):
                raise SimulationError(
                    f"state is not normalised (sum p = {total:.6f})"
                )
            drawn = rng.choice(len(indices), size=shots, p=probs / total)
            values, tallies = np.unique(drawn, return_counts=True)
            return {
                int(indices[v]): int(c) for v, c in zip(values, tallies)
            }
        return self.state.sample(shots, rng)

    def digest(self) -> str:
        """Stable sha256 over the native final state.

        Plays the role the dense path's ``sha256(amplitudes)`` plays in
        job results: two runs of the same circuit on the same backend
        produce the same digest.
        """
        h = hashlib.sha256()
        h.update(self.backend.encode())
        h.update(struct.pack("<q", self.num_qubits))
        if self.backend == "stabilizer":
            h.update(np.ascontiguousarray(self.state.x).tobytes())
            h.update(np.ascontiguousarray(self.state.z).tobytes())
            h.update(np.ascontiguousarray(self.state.r).tobytes())
        elif self.backend == "sparse":
            for index in sorted(self.state.amplitudes):
                h.update(struct.pack("<q", index))
                h.update(np.complex128(self.state.amplitudes[index]).tobytes())
        else:
            for tensor in self.state.tensors:
                h.update(struct.pack("<qqq", *tensor.shape))
                h.update(np.ascontiguousarray(tensor).tobytes())
        return h.hexdigest()

    def expectation_z(self, qubit: int) -> float:
        """Pauli-Z expectation on ``qubit`` via the native representation."""
        if self.backend == "stabilizer":
            return self.state.expectation_z(qubit)
        if self.backend == "mps":
            return self.state.expectation_pauli({qubit: "Z"})
        total = 0.0
        for index, amplitude in self.state.amplitudes.items():
            sign = -1.0 if index >> qubit & 1 else 1.0
            total += sign * abs(amplitude) ** 2
        return total


def run_backend(circuit: QuantumCircuit, backend: str) -> BackendExecution:
    """Execute ``circuit`` on one non-dense backend.

    Raises:
        AnalysisError: For the dense backend (owned by
            :class:`~repro.core.simulator.QGpuSimulator`) or an unknown
            name.
        SimulationError: From the engine itself (e.g. non-Clifford gates
            routed to the tableau, or an MPS whose tensors outgrow
            :data:`~repro.mps.state.MPS_BYTE_LIMIT`).
    """
    if backend == "stabilizer":
        state: StabilizerState = simulate_clifford(circuit)
        return BackendExecution("stabilizer", circuit.num_qubits, state)
    if backend == "sparse":
        sparse: SparseState = simulate_sparse(circuit)
        return BackendExecution("sparse", circuit.num_qubits, sparse)
    if backend == "mps":
        mps: MpsState = simulate_mps(circuit)
        return BackendExecution("mps", circuit.num_qubits, mps)
    if backend == "statevector":
        raise AnalysisError(
            "the dense chunked engine runs through QGpuSimulator, "
            "not run_backend"
        )
    raise AnalysisError(f"unknown backend {backend!r}")
