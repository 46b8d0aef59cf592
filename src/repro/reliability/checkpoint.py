"""Checkpoint/resume for mid-circuit simulation state.

A checkpoint is the persisted form of an in-flight run: the full chunked
state (GFC-compressed through :mod:`repro.statevector.io`, so it is
bit-exact and CRC-guarded) plus the metadata needed to restart exactly
where the run stopped - the gate cursor, the chunk geometry, and the
involvement mask at the cursor (stored so resume can cross-check its
replayed tracker state against what the writer saw).

Container layout (checkpoint format v2; v1 was a bare QGSV state file
with no resume metadata)::

    magic "QGCK" | uint8 version | uint8 dtype | uint32 num_qubits
    uint32 chunk_bits | uint64 gate_cursor | uint64 involvement_mask
    uint16 circuit-name length | name bytes (UTF-8)
    uint16 version-name length | name bytes (UTF-8)
    uint32 CRC32 of everything above | embedded QGSV v2 state stream

The dtype byte (reserved, always 0, in the first v2 writers) is the state's
precision: 0 = complex128, 1 = complex64.  The QGSV stream always carries
complex128; widening complex64 and narrowing it back on load is exact, so
a single-precision run resumes bit for bit.

Writes are atomic (temp file + ``os.replace``), so a crash during
checkpointing can never destroy the previous good checkpoint.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from repro.errors import CheckpointError, ReproError
from repro.statevector.chunks import ChunkedStateVector
from repro.statevector.io import dump_state, load_state, read_exact

_MAGIC = b"QGCK"
_FIXED = struct.Struct("<4sBBIIQQ")
_NAME_LEN = struct.Struct("<H")
_CRC_FIELD = struct.Struct("<I")
#: Current checkpoint container version.
CHECKPOINT_VERSION = 2
#: Header dtype code -> state dtype (the index is the code).
_DTYPES = (np.dtype(np.complex128), np.dtype(np.complex64))


@dataclass
class Checkpoint:
    """One resumable snapshot of an in-flight functional run.

    Attributes:
        state: Chunked state at the cursor, bit-exact and at its own
            precision.
        gate_cursor: Number of (reordered) gates already applied.
        involvement_mask: Involvement bitmask at the cursor.
        circuit_name: Name of the circuit being executed.
        version_name: Execution version name.
    """

    state: ChunkedStateVector
    gate_cursor: int
    involvement_mask: int
    circuit_name: str
    version_name: str

    @property
    def num_qubits(self) -> int:
        return self.state.num_qubits

    @property
    def chunk_bits(self) -> int:
        return self.state.chunk_bits


def _encode_metadata(checkpoint: Checkpoint) -> bytes:
    circuit = checkpoint.circuit_name.encode("utf-8")
    version = checkpoint.version_name.encode("utf-8")
    if max(len(circuit), len(version)) > 0xFFFF:
        raise CheckpointError("checkpoint name exceeds 65535 bytes")
    if checkpoint.involvement_mask >> 64:
        raise CheckpointError("involvement mask exceeds 64 bits")
    blob = _FIXED.pack(
        _MAGIC,
        CHECKPOINT_VERSION,
        _DTYPES.index(checkpoint.state.dtype),
        checkpoint.num_qubits,
        checkpoint.chunk_bits,
        checkpoint.gate_cursor,
        checkpoint.involvement_mask,
    )
    blob += _NAME_LEN.pack(len(circuit)) + circuit
    blob += _NAME_LEN.pack(len(version)) + version
    return blob


def save_checkpoint(
    destination: str | Path,
    state: ChunkedStateVector,
    gate_cursor: int,
    involvement_mask: int = 0,
    circuit_name: str = "",
    version_name: str = "",
) -> int:
    """Atomically write a checkpoint file; returns bytes written."""
    checkpoint = Checkpoint(
        state=state,
        gate_cursor=gate_cursor,
        involvement_mask=involvement_mask,
        circuit_name=circuit_name,
        version_name=version_name,
    )
    metadata = _encode_metadata(checkpoint)
    path = Path(destination)
    temp = path.with_name(path.name + ".tmp")
    try:
        with open(temp, "wb") as handle:
            handle.write(metadata)
            handle.write(_CRC_FIELD.pack(zlib.crc32(metadata)))
            state_bytes = dump_state(state.to_dense(), handle)
        os.replace(temp, path)
    except OSError as error:
        temp.unlink(missing_ok=True)
        raise CheckpointError(f"cannot write checkpoint {path}: {error}") from error
    return len(metadata) + _CRC_FIELD.size + state_bytes


def _load_from(handle: BinaryIO, where: str) -> Checkpoint:
    fixed = read_exact(handle, _FIXED.size)
    if len(fixed) != _FIXED.size:
        raise CheckpointError(f"{where}: too short for checkpoint header")
    magic, version, code, num_qubits, chunk_bits, cursor, mask = _FIXED.unpack(fixed)
    if magic != _MAGIC:
        raise CheckpointError(f"{where}: not a checkpoint file (magic {magic!r})")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{where}: unsupported checkpoint version {version}")
    metadata = bytearray(fixed)
    names: list[str] = []
    for _ in range(2):
        raw_len = read_exact(handle, _NAME_LEN.size)
        if len(raw_len) != _NAME_LEN.size:
            raise CheckpointError(f"{where}: truncated checkpoint metadata")
        (length,) = _NAME_LEN.unpack(raw_len)
        raw = read_exact(handle, length)
        if len(raw) != length:
            raise CheckpointError(f"{where}: truncated checkpoint metadata")
        metadata += raw_len + raw
        names.append(raw.decode("utf-8"))
    crc_raw = read_exact(handle, _CRC_FIELD.size)
    if len(crc_raw) != _CRC_FIELD.size:
        raise CheckpointError(f"{where}: truncated checkpoint metadata")
    (expected_crc,) = _CRC_FIELD.unpack(crc_raw)
    if zlib.crc32(bytes(metadata)) != expected_crc:
        raise CheckpointError(f"{where}: checkpoint metadata CRC32 mismatch")
    if code >= len(_DTYPES):
        raise CheckpointError(f"{where}: unknown checkpoint dtype code {code}")

    try:
        dense = load_state(handle)
    except ReproError as error:
        raise CheckpointError(f"{where}: bad checkpoint state: {error}") from error
    if dense.num_qubits != num_qubits:
        raise CheckpointError(
            f"{where}: state width {dense.num_qubits} != header width {num_qubits}"
        )
    return Checkpoint(
        state=ChunkedStateVector.from_dense(dense.amplitudes, chunk_bits, _DTYPES[code]),
        gate_cursor=cursor,
        involvement_mask=mask,
        circuit_name=names[0],
        version_name=names[1],
    )


def load_checkpoint(source: str | Path | BinaryIO) -> Checkpoint:
    """Read and verify a checkpoint written by :func:`save_checkpoint`.

    Raises:
        CheckpointError: Missing, truncated, corrupted, or wrong-format file.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            with open(path, "rb") as handle:
                return _load_from(handle, str(path))
        except OSError as error:
            raise CheckpointError(f"cannot read checkpoint {path}: {error}") from error
    return _load_from(source, "<stream>")
