"""Tests for the checkpoint container (format v2)."""

from __future__ import annotations

import io
import struct
import zlib

import numpy as np
import pytest

from repro.circuits.library import get_circuit
from repro.errors import CheckpointError
from repro.reliability import load_checkpoint, save_checkpoint
from repro.statevector.chunks import ChunkedStateVector
from repro.statevector.io import dump_state
from repro.statevector.state import simulate


@pytest.fixture
def state() -> ChunkedStateVector:
    dense = simulate(get_circuit("qaoa", 8))
    return ChunkedStateVector.from_dense(dense.amplitudes, chunk_bits=5)


class TestRoundTrip:
    def test_metadata_and_state_round_trip(self, tmp_path, state) -> None:
        path = tmp_path / "run.qgck"
        written = save_checkpoint(
            path, state, gate_cursor=17, involvement_mask=0b1011,
            circuit_name="qaoa_8", version_name="Q-GPU",
        )
        assert path.stat().st_size == written
        checkpoint = load_checkpoint(path)
        assert checkpoint.gate_cursor == 17
        assert checkpoint.involvement_mask == 0b1011
        assert checkpoint.circuit_name == "qaoa_8"
        assert checkpoint.version_name == "Q-GPU"
        assert checkpoint.chunk_bits == 5
        np.testing.assert_array_equal(
            checkpoint.state.to_dense().view(np.uint64),
            state.to_dense().view(np.uint64),
        )

    def test_write_is_atomic(self, tmp_path, state) -> None:
        path = tmp_path / "run.qgck"
        save_checkpoint(path, state, gate_cursor=1)
        save_checkpoint(path, state, gate_cursor=2)  # atomically replaced
        assert load_checkpoint(path).gate_cursor == 2
        assert not (tmp_path / "run.qgck.tmp").exists()


def hand_packed(amplitudes: np.ndarray, dtype_code: int) -> bytes:
    """A QGCK v2 file built field by field, with ``dtype_code`` in the
    byte after the version (reserved, and always 0, in early writers)."""
    num_qubits = amplitudes.size.bit_length() - 1
    metadata = struct.pack("<4sBBIIQQ", b"QGCK", 2, dtype_code, num_qubits, 5, 9, 0)
    for name in (b"hand", b"Q-GPU"):
        metadata += struct.pack("<H", len(name)) + name
    stream = io.BytesIO()
    dump_state(amplitudes, stream)
    return metadata + struct.pack("<I", zlib.crc32(metadata)) + stream.getvalue()


class TestDtypeCode:
    @pytest.mark.parametrize(
        "code, dtype", [(0, np.complex128), (1, np.complex64)]
    )
    def test_code_selects_the_state_dtype(self, tmp_path, state, code, dtype) -> None:
        amplitudes = state.backing.astype(dtype).astype(np.complex128)
        path = tmp_path / "hand.qgck"
        path.write_bytes(hand_packed(amplitudes, code))
        checkpoint = load_checkpoint(path)
        assert checkpoint.state.dtype == dtype
        assert (checkpoint.gate_cursor, checkpoint.chunk_bits) == (9, 5)
        assert checkpoint.circuit_name == "hand"
        assert checkpoint.state.backing.tobytes() == amplitudes.astype(dtype).tobytes()

    def test_unknown_code_is_rejected(self, tmp_path, state) -> None:
        path = tmp_path / "hand.qgck"
        path.write_bytes(hand_packed(state.backing, 2))
        with pytest.raises(CheckpointError, match="dtype code 2"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "code, dtype", [(0, np.complex128), (1, np.complex64)]
    )
    def test_writer_matches_the_hand_packed_layout(
        self, tmp_path, state, code, dtype
    ) -> None:
        narrowed = ChunkedStateVector.from_dense(state.backing, 5, dtype=dtype)
        path = tmp_path / "run.qgck"
        save_checkpoint(
            path, narrowed, gate_cursor=9, circuit_name="hand", version_name="Q-GPU"
        )
        # The state stream is always complex128, whatever the dtype byte.
        expected = hand_packed(narrowed.backing.astype(np.complex128), code)
        assert path.read_bytes() == expected


class TestErrors:
    def test_missing_file(self, tmp_path) -> None:
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "nope.qgck")

    def test_bad_magic(self, tmp_path, state) -> None:
        path = tmp_path / "run.qgck"
        save_checkpoint(path, state, gate_cursor=1)
        data = bytearray(path.read_bytes())
        data[0] = ord("X")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_metadata_corruption_detected(self, tmp_path, state) -> None:
        path = tmp_path / "run.qgck"
        save_checkpoint(path, state, gate_cursor=9)
        data = bytearray(path.read_bytes())
        data[12] ^= 0xFF  # inside the fixed metadata block
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_state_detected(self, tmp_path, state) -> None:
        path = tmp_path / "run.qgck"
        save_checkpoint(path, state, gate_cursor=9)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(CheckpointError, match="bad checkpoint state"):
            load_checkpoint(path)

    def test_state_payload_corruption_detected(self, tmp_path, state) -> None:
        path = tmp_path / "run.qgck"
        save_checkpoint(path, state, gate_cursor=9)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x01  # inside the GFC payload, guarded by QGSV v2 CRC
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="bad checkpoint state"):
            load_checkpoint(path)
