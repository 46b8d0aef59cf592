"""Gate fusion: grouping adjacent gates into multi-qubit super-gates.

Qsim-Cirq's main CPU advantage over a plain state-vector loop is gate
fusion: consecutive gates acting on overlapping qubit sets are multiplied
into one ``2^k x 2^k`` matrix and applied in a single pass over the state,
cutting memory traffic by the fusion factor.  QISKit-Aer ships the same
optimization (enabled by default in both the paper's baseline and Q-GPU, so
it cancels out of the normalized comparisons); here it feeds the Qsim-Cirq
cost model.

The pass is greedy and structural; :meth:`FusedBlock.matrix` additionally
forms the fused unitary (what a real fusion pass uploads to the GPU).  The
functional engine's :func:`repro.statevector.fusion.fuse_slabs` runs this
same pass on the stretches between its diagonal slabs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.circuits.gates import Gate
from repro.errors import SimulationError


@dataclass(frozen=True)
class FusedBlock:
    """A group of consecutive gates applied as one multi-qubit pass.

    Attributes:
        gates: The member gates, in circuit order.
        qubits: Union of the member gates' qubits, sorted.
    """

    gates: tuple[Gate, ...]
    qubits: tuple[int, ...]

    @property
    def width(self) -> int:
        return len(self.qubits)

    def matrix(self) -> np.ndarray:
        """The fused ``2^width x 2^width`` unitary (members multiplied).

        Basis convention matches :class:`~repro.circuits.gates.Gate`:
        ``qubits[0]`` is the least significant matrix axis.
        """
        position = {q: k for k, q in enumerate(self.qubits)}
        dim = 1 << self.width
        fused = np.eye(dim, dtype=np.complex128)
        for gate in self.gates:
            local = gate.matrix()
            k = gate.num_qubits
            gate_positions = [position[q] for q in gate.qubits]
            embedded = np.zeros((dim, dim), dtype=np.complex128)
            for column in range(dim):
                local_in = 0
                for bit_index, p in enumerate(gate_positions):
                    local_in |= (column >> p & 1) << bit_index
                for local_out in range(1 << k):
                    amplitude = local[local_out, local_in]
                    if amplitude == 0:
                        continue
                    row = column
                    for bit_index, p in enumerate(gate_positions):
                        bit = local_out >> bit_index & 1
                        row = (row & ~(1 << p)) | (bit << p)
                    embedded[row, column] += amplitude
            fused = embedded @ fused
        return fused


def fuse(circuit: Iterable[Gate], max_fused_qubits: int = 4) -> list[FusedBlock]:
    """Greedy gate fusion up to ``max_fused_qubits``-wide blocks.

    A gate joins the current block when the union of qubits stays within
    the limit *and* the gate touches the block (shares a qubit) or the block
    is empty; otherwise the block is flushed.  Disjoint gates deliberately
    do not fuse - a fused pass over unrelated qubits would touch the whole
    state with a wider matrix for no traffic saving.

    Args:
        circuit: Circuit (or any gate stream) to fuse.
        max_fused_qubits: Widest allowed block (Qsim uses 4 by default).

    Returns:
        Blocks in execution order; concatenating their gates reproduces the
        circuit.
    """
    if max_fused_qubits < 1:
        raise SimulationError("max_fused_qubits must be >= 1")
    blocks: list[FusedBlock] = []
    current: list[Gate] = []
    current_qubits: set[int] = set()

    def flush() -> None:
        nonlocal current, current_qubits
        if current:
            blocks.append(
                FusedBlock(gates=tuple(current), qubits=tuple(sorted(current_qubits)))
            )
            current = []
            current_qubits = set()

    for gate in circuit:
        gate_qubits = set(gate.qubits)
        union = current_qubits | gate_qubits
        touches = bool(current_qubits & gate_qubits) or not current
        if touches and len(union) <= max_fused_qubits:
            current.append(gate)
            current_qubits = union
        else:
            flush()
            current = [gate]
            current_qubits = gate_qubits
    flush()
    return blocks

