"""Chunked state vector - the functional model of QISKit-Aer's partitioning.

The paper's baseline (Section III-B, Fig. 1) splits the ``2^n`` amplitude
vector into ``2^(n-m)`` chunks of ``2^m`` amplitudes: the low ``m`` index
bits address *within* a chunk, the high ``n-m`` bits select the chunk.

* A gate whose qubits are all ``< m`` ("Case 1") updates each chunk
  independently.
* A gate touching qubits ``>= m`` ("Case 2") pairs chunks whose indices
  differ in the corresponding chunk-index bits; the paired chunks must be
  co-resident before the update.

This module implements those mechanics exactly, so the timed executor's
chunk-schedule logic can be validated against a functional ground truth:
running a circuit chunked must be bit-identical to running it dense.

Storage is one contiguous backing buffer with the chunks as views into it
(chunk ``i`` occupies ``[i * 2^m, (i + 1) * 2^m)``).  Two ways of applying
a gate share one kernel (:func:`repro.statevector.kernels.sweep`):

* :meth:`ChunkedStateVector.sweep` - what every run executes: the gate is
  applied to all unpruned chunks at once, as one strided view of the
  backing selected by a :class:`~repro.statevector.subcube.LiveSubcube`;
* :meth:`ChunkedStateVector.apply_groups` - the Fig. 1 reference: an
  explicit list of chunk groups, each gathered, updated and scattered on
  its own.  Tests compare the sweep against it bit for bit.
"""

from __future__ import annotations

import time

import numpy as np

from repro.circuits.gates import Gate
from repro.errors import SimulationError
from repro.obs.tracer import NULL_TRACER
from repro.statevector.fusion import GateSlab
from repro.statevector.kernels import (
    apply_diagonal_chunk,
    chunk_diagonal_factor,
    sweep,
)
from repro.statevector.measure import _sample_blocks
from repro.statevector.parallel import ParallelChunkEngine
from repro.statevector.subcube import LiveSubcube, outside_mask

#: Widest register the functional chunked engine runs (a 1 GiB complex128
#: state); the planner prices it and the MPS engine sizes its limit by it.
DENSE_QUBIT_LIMIT = 26

def chunk_pair_groups(
    num_qubits: int, chunk_bits: int, gate_qubits: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Group chunk indices that must be co-resident to apply a gate.

    Returns a list of tuples; each tuple holds the ``2^k`` chunk indices
    (``k`` = number of gate qubits outside the chunk) that form one
    independent update group, in ascending outside-bit order.  For a gate
    fully inside the chunk every group is a singleton.
    """
    num_chunks = 1 << (num_qubits - chunk_bits)
    outside = sorted(q - chunk_bits for q in gate_qubits if q >= chunk_bits)
    if not outside:
        return [(i,) for i in range(num_chunks)]
    outside_mask = 0
    for bit in outside:
        outside_mask |= 1 << bit
    groups: list[tuple[int, ...]] = []
    for base in range(num_chunks):
        if base & outside_mask:
            continue  # only enumerate canonical (all-zero outside bits) bases
        members = []
        for selector in range(1 << len(outside)):
            index = base
            for position, bit in enumerate(outside):
                if selector >> position & 1:
                    index |= 1 << bit
            members.append(index)
        groups.append(tuple(members))
    return groups


def gather_remap(gate: Gate, chunk_bits: int) -> Gate:
    """``gate`` as it acts on one gathered group of chunks.

    Gathered index = ``(member rank << chunk_bits) | offset`` with the
    rank bits ordered by ascending outside qubit, so the outside qubits
    move down onto the bits just above the chunk.
    """
    mapping = {q: q for q in gate.qubits if q < chunk_bits}
    outside = sorted(q for q in gate.qubits if q >= chunk_bits)
    for rank, q in enumerate(outside):
        mapping[q] = chunk_bits + rank
    return gate.remapped(mapping)


class ChunkedStateVector:
    """State vector stored as equally sized chunks over one backing buffer.

    Args:
        num_qubits: Register width ``n``.
        chunk_bits: Amplitudes per chunk = ``2^chunk_bits``; must satisfy
            ``0 < chunk_bits <= n``.
        dtype: Amplitude dtype - ``complex128`` (default, bit-exact
            baseline) or ``complex64`` (the planner's single-precision
            fast path; gate matrices are cast down at the kernels).
    """

    def __init__(
        self, num_qubits: int, chunk_bits: int, dtype=np.complex128
    ) -> None:
        if not 0 < chunk_bits <= num_qubits:
            raise SimulationError(
                f"chunk_bits must be in (0, {num_qubits}], got {chunk_bits}"
            )
        if num_qubits > DENSE_QUBIT_LIMIT:
            raise SimulationError(
                f"functional chunked simulation is limited to "
                f"{DENSE_QUBIT_LIMIT} qubits"
            )
        resolved = np.dtype(dtype)
        if resolved not in (np.dtype(np.complex64), np.dtype(np.complex128)):
            raise SimulationError(
                f"state dtype must be complex64 or complex128, got {resolved}"
            )
        self.num_qubits = num_qubits
        self.chunk_bits = chunk_bits
        self.num_chunks = 1 << (num_qubits - chunk_bits)
        self.dtype = resolved
        self._backing = np.zeros(1 << num_qubits, dtype=resolved)
        self._backing[0] = 1.0
        self._chunks: list[np.ndarray] | None = None

    @property
    def chunk_size(self) -> int:
        """Amplitudes per chunk."""
        return 1 << self.chunk_bits

    @property
    def backing(self) -> np.ndarray:
        """The contiguous ``2^n`` amplitude buffer the chunks are views of."""
        return self._backing

    @property
    def chunks(self) -> list[np.ndarray]:
        """Per-chunk views into :attr:`backing` (writes go through)."""
        if self._chunks is None:
            size = self.chunk_size
            self._chunks = [
                self._backing[index * size : (index + 1) * size]
                for index in range(self.num_chunks)
            ]
        return self._chunks

    def to_dense(self) -> np.ndarray:
        """A dense copy of the full ``2^n`` vector."""
        return self._backing.copy()

    @classmethod
    def from_dense(
        cls, amplitudes: np.ndarray, chunk_bits: int, dtype=None
    ) -> "ChunkedStateVector":
        """Split a dense vector into chunks (copying).

        ``dtype=None`` keeps a complex64 input in complex64 and stores
        everything else (the historical callers pass complex128) at full
        precision, so no caller silently loses precision to a downcast.
        """
        num_qubits = int(amplitudes.size).bit_length() - 1
        if amplitudes.size != 1 << num_qubits:
            raise SimulationError("amplitude count is not a power of two")
        if dtype is None:
            dtype = (
                np.complex64
                if amplitudes.dtype == np.dtype(np.complex64)
                else np.complex128
            )
        out = cls(num_qubits, chunk_bits, dtype=dtype)
        out._backing[...] = amplitudes
        return out

    def apply(self, gate: Gate) -> "ChunkedStateVector":
        """Apply one gate to the whole state (every chunk group live)."""
        self.sweep(gate)
        return self

    def sweep(
        self,
        gate: Gate,
        live: LiveSubcube | None = None,
        engine: ParallelChunkEngine | None = None,
        tracer=NULL_TRACER,
    ) -> tuple[int, int]:
        """Apply ``gate`` to every chunk group with a live member, at once.

        Args:
            gate: A :class:`Gate` or
                :class:`~repro.statevector.fusion.GateSlab`.
            live: The unpruned chunks (default: all of them).  Groups
                are live if any member is, so pruned partners of a live
                chunk are updated too - they may receive amplitude.
            engine: Optional worker pool; sweeps above its floor are split
                into one contiguous share per worker.
            tracer: Kernel work of the sweep (``kernels.<kind>``,
                ``kernel_amps.`` / ``kernel_bytes.`` / ``kernel_seconds.``)
                is recorded into this tracer's counters.

        Returns:
            ``(total, live)`` chunk-group counts of the gate.
        """
        if live is None:
            live = LiveSubcube(self.num_qubits - self.chunk_bits)
        outside = outside_mask(gate.qubits, self.chunk_bits)
        total_groups, live_groups = live.group_counts(outside)
        live = live.relaxed(outside)
        fixed_mask = live.fixed_mask << self.chunk_bits
        fixed_value = live.fixed_value << self.chunk_bits
        counters = tracer.counters if tracer is not NULL_TRACER else None
        timed = counters is not None and not tracer.clock.deterministic
        start = time.perf_counter() if timed else 0.0
        if engine is None:
            sweep(self._backing, gate, fixed_mask, fixed_value, self.chunk_bits)
        else:
            engine.sweep(self._backing, gate, fixed_mask, fixed_value, self.chunk_bits)
        if counters is not None:
            kind = "diagonal" if gate.is_diagonal else "dense"
            amps = live.live_chunks << self.chunk_bits
            counters.count(f"kernels.{kind}")
            if isinstance(gate, GateSlab) and len(gate.gates) > 1:
                counters.count("kernels.fused_slab")
            counters.add(f"kernel_amps.{kind}", amps)
            # The DES cost model's convention: every touched amplitude is
            # read and written once.
            counters.add(f"kernel_bytes.{kind}", 2 * amps * self.dtype.itemsize)
            if timed:
                counters.add(f"kernel_seconds.{kind}", time.perf_counter() - start)
        return total_groups, live_groups

    def apply_groups(
        self, gate: Gate, groups: list[tuple[int, ...]]
    ) -> "ChunkedStateVector":
        """Apply ``gate`` to the listed chunk groups only, one at a time.

        The Fig. 1 mechanics, kept as the reference :meth:`sweep` is
        tested against: a group inside the chunk is updated in place, a
        group pairing chunks is gathered into one buffer, updated and
        scattered back.  Each buffer goes through the same kernel as the
        sweep, so the two agree bit for bit.
        """
        chunks = self.chunks
        if gate.is_diagonal:
            # Diagonal gates never mix amplitudes: multiply each member
            # chunk in place by the factor its index selects.
            cache: dict[int, np.ndarray | complex] = {}
            for members in groups:
                for member in members:
                    apply_diagonal_chunk(
                        chunks[member], gate, self.chunk_bits, member, cache
                    )
            return self
        if not outside_mask(gate.qubits, self.chunk_bits):
            for (index,) in groups:
                sweep(chunks[index], gate)
            return self
        remapped = gather_remap(gate, self.chunk_bits)
        for members in groups:
            gathered = np.concatenate([chunks[index] for index in members])
            sweep(gathered, remapped)
            for position, index in enumerate(members):
                start = position << self.chunk_bits
                chunks[index][...] = gathered[start : start + self.chunk_size]
        return self

    def chunk_is_zero(self, index: int, tolerance: float = 0.0) -> bool:
        """True when every amplitude in chunk ``index`` is (near) zero."""
        chunk = self.chunks[index]
        if tolerance == 0.0:
            return not np.any(chunk)
        return bool(np.all(np.abs(chunk) <= tolerance))

    def sample(self, shots: int, rng: np.random.Generator | None = None) -> dict[int, int]:
        """Sample basis states; returns index -> count.

        The two-level sampler of :mod:`repro.statevector.measure` with
        this state's chunks as its blocks: zero chunks are never expanded
        (the sampling analogue of pruning) and nothing is densified.
        """
        if rng is None:
            rng = np.random.default_rng()
        return _sample_blocks(self._backing, shots, rng, self.chunk_bits)


__all__ = [
    "ChunkedStateVector",
    "chunk_pair_groups",
    "apply_diagonal_chunk",
    "chunk_diagonal_factor",
]
