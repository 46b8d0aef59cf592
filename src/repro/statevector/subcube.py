"""The live chunks of a gate as a subcube of the chunk-index space.

Every pruning rule (:mod:`repro.core.liveness`) proves a chunk all-zero iff
an index bit disagrees with a qubit known to sit in ``|0>`` or ``|1>`` -
Algorithm 1 fixes every uninvolved qubit at ``|0>``.  The chunks that
survive are the indices ``c`` with ``c & fixed_mask == fixed_value``: a
subcube.  :class:`LiveSubcube` gives it to the functional engine, so a gate
is applied to one strided view of the live amplitudes
(:func:`repro.statevector.kernels.sweep`) instead of to an enumerated list
of chunks, and to the chunk-granular DES, which iterates its members.

A gate with qubits at or above ``chunk_bits`` pairs chunks whose indices
differ on those *outside* bits, and a group is live if any member is.
:meth:`LiveSubcube.relaxed` drops the outside bits from the fixed set,
which is exactly that rule; the group counts then follow from popcounts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.circuits.gates import qubit_mask
from repro.errors import SimulationError


def outside_mask(qubits: tuple[int, ...], chunk_bits: int) -> int:
    """Chunk-index bits selected by the gate qubits at or above ``chunk_bits``."""
    return qubit_mask(qubits) >> chunk_bits


@dataclass(frozen=True)
class LiveSubcube:
    """Chunk indices ``c`` with ``c & fixed_mask == fixed_value``.

    Attributes:
        index_bits: Width of the chunk index (``num_qubits - chunk_bits``).
        fixed_mask: Index bits every live chunk agrees on.
        fixed_value: Their common value (a subset of ``fixed_mask``).
    """

    index_bits: int
    fixed_mask: int = 0
    fixed_value: int = 0

    def __post_init__(self) -> None:
        if self.index_bits < 0:
            raise SimulationError("index_bits must be non-negative")
        if self.fixed_mask >> self.index_bits:
            raise SimulationError("fixed_mask wider than the chunk index")
        if self.fixed_value & ~self.fixed_mask:
            raise SimulationError("fixed_value has bits outside fixed_mask")

    def relaxed(self, outside: int) -> "LiveSubcube":
        """The chunks of every group with a live member.

        ``outside`` is the gate's :func:`outside_mask`: members of a group
        take every value on those bits, so they stop being constraints.
        """
        mask = self.fixed_mask & ~outside
        return LiveSubcube(self.index_bits, mask, self.fixed_value & mask)

    @property
    def live_chunks(self) -> int:
        return 1 << (self.index_bits - self.fixed_mask.bit_count())

    def __contains__(self, chunk_index: int) -> bool:
        return chunk_index & self.fixed_mask == self.fixed_value

    def __iter__(self) -> Iterator[int]:
        """The live chunk indices, ascending."""
        free = ~self.fixed_mask & ((1 << self.index_bits) - 1)
        bits = 0
        while True:
            yield self.fixed_value | bits
            bits = (bits - free) & free  # the next subset of ``free``
            if not bits:
                return

    def group_counts(self, outside: int) -> tuple[int, int]:
        """``(total, live)`` chunk groups of a gate with these outside bits."""
        paired = outside.bit_count()
        return (
            1 << (self.index_bits - paired),
            self.relaxed(outside).live_chunks >> paired,
        )

