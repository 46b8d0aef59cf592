"""Zero state-amplitude pruning - Algorithm 1 of the paper, line for line.

A chunk of ``2^chunkSize`` amplitudes is indexed by the high ``n - chunkSize``
qubit bits.  If the chunk index has a 1 in a position whose qubit is not yet
involved, every amplitude in the chunk is zero and the chunk is *pruned*: it
is neither transferred to the GPU nor updated (a zero vector is unchanged by
any unitary).

This module is the oracle the tests hold the engines to: a faithful
transcription including Algorithm 1's early-exit (``iChunk' > involvement``)
and skip (``iChunk' & involvement != iChunk'``) tests.  The executors and
the functional engine take their live chunks from
:meth:`repro.core.liveness.LiveTracker.subcube` instead.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import SimulationError


def iter_live_chunks(
    num_qubits: int, chunk_bits: int, involvement: int
) -> Iterator[int]:
    """Yield the chunk indices Algorithm 1 does *not* prune, in order.

    Args:
        num_qubits: Register width ``n``.
        chunk_bits: ``chunkSize`` - low bits addressing within a chunk.
        involvement: Involvement bitmask over all ``n`` qubits.
    """
    if not 0 < chunk_bits <= num_qubits:
        raise SimulationError(f"chunk_bits {chunk_bits} out of range")
    if involvement >> num_qubits:
        raise SimulationError("involvement mask wider than the register")
    num_chunks = 1 << (num_qubits - chunk_bits)
    for chunk_index in range(num_chunks):
        shifted = chunk_index << chunk_bits  # iChunk' - aligned to qubits
        if shifted > involvement:
            # All remaining indices are larger still: every one of them has
            # a 1 above the involvement prefix, hence only zero amplitudes.
            break
        if shifted & involvement != shifted:
            continue  # some chunk-index 1-bit sits at an uninvolved qubit
        yield chunk_index


def chunk_is_pruned(chunk_index: int, chunk_bits: int, involvement: int) -> bool:
    """Pruning test of Algorithm 1, line 7, for one chunk."""
    shifted = chunk_index << chunk_bits
    return shifted & involvement != shifted
