"""The live chunks of a gate as a subcube of the chunk-index space.

Algorithm 1 prunes a chunk iff its index has a 1 at an uninvolved qubit;
basis tracking prunes it iff an index bit disagrees with a qubit known to
sit in ``|0>`` or ``|1>``.  Either way the chunks that survive are the
indices ``c`` with ``c & fixed_mask == fixed_value`` - a subcube.  That
closed form is what the timed model already counts with
(:func:`repro.core.pruning.live_chunk_count`); :class:`LiveSubcube` gives
it to the functional engine, so a gate is applied to one strided view of
the live amplitudes (:func:`repro.statevector.kernels.sweep`) instead of
to an enumerated list of chunks.

A gate with qubits at or above ``chunk_bits`` pairs chunks whose indices
differ on those *outside* bits, and a group is live if any member is.
:meth:`LiveSubcube.relaxed` drops the outside bits from the fixed set,
which is exactly that rule; the group counts then follow from popcounts.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError


def qubit_mask(qubits: tuple[int, ...]) -> int:
    """Bitmask with a 1 at each listed qubit position.

    (:func:`repro.core.involvement.qubit_mask` is the same function;
    importing it here would cycle through ``repro.core``'s package init.)
    """
    mask = 0
    for q in qubits:
        mask |= 1 << q
    return mask


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

    @classmethod
    def from_involvement(
        cls, num_qubits: int, chunk_bits: int, involvement: int
    ) -> "LiveSubcube":
        """Algorithm 1: index bits at uninvolved qubits must be 0."""
        index_bits = num_qubits - chunk_bits
        uninvolved = ~(involvement >> chunk_bits) & ((1 << index_bits) - 1)
        return cls(index_bits, uninvolved, 0)

    @classmethod
    def from_fixed_qubits(
        cls, num_qubits: int, chunk_bits: int, mask: int, value: int
    ) -> "LiveSubcube":
        """Basis tracking: ``BasisTracker.fixed_masks()`` over all qubits."""
        return cls(num_qubits - chunk_bits, mask >> chunk_bits, value >> chunk_bits)

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

    def group_counts(self, outside: int) -> tuple[int, int]:
        """``(total, live)`` chunk groups of a gate with these outside bits."""
        paired = outside.bit_count()
        return (
            1 << (self.index_bits - paired),
            self.relaxed(outside).live_chunks >> paired,
        )

