"""Losslessness and format tests for the GFC codec."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.compression.gfc import (
    MICRO_CHUNK,
    compress,
    compression_ratio,
    decompress,
)
from repro.errors import CompressionError


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact bit-pattern equality (NaN-safe)."""
    return np.array_equal(
        np.ascontiguousarray(a).view(np.uint64),
        np.ascontiguousarray(b).view(np.uint64),
    )


class TestRoundTrip:
    @given(
        data=st.lists(
            st.floats(allow_nan=True, allow_infinity=True, width=64),
            min_size=0,
            max_size=300,
        ),
        num_segments=st.integers(1, 5),
    )
    def test_arbitrary_doubles_round_trip(self, data: list[float], num_segments: int) -> None:
        array = np.array(data, dtype=np.float64)
        recovered = decompress(compress(array, num_segments=num_segments))
        assert bit_equal(array, recovered)

    def test_special_values(self) -> None:
        array = np.array(
            [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308]
        )
        recovered = decompress(compress(array))
        assert bit_equal(array, recovered)
        # Signed zero and NaN payloads preserved exactly.
        assert np.signbit(recovered[4])
        assert np.isnan(recovered[0])

    def test_complex_amplitudes_round_trip(self, rng) -> None:
        amplitudes = (rng.normal(size=512) + 1j * rng.normal(size=512)).astype(
            np.complex128
        )
        recovered = decompress(compress(amplitudes)).view(np.complex128)
        assert bit_equal(amplitudes.view(np.float64), recovered.view(np.float64))

    def test_exact_micro_chunk_multiple(self, rng) -> None:
        array = rng.normal(size=4 * MICRO_CHUNK)
        assert bit_equal(array, decompress(compress(array)))

    def test_single_element(self) -> None:
        array = np.array([3.14159])
        assert bit_equal(array, decompress(compress(array)))

    def test_empty_array(self) -> None:
        array = np.empty(0, dtype=np.float64)
        assert decompress(compress(array)).size == 0

    def test_many_segments_on_small_input(self, rng) -> None:
        array = rng.normal(size=10)
        assert bit_equal(array, decompress(compress(array, num_segments=5)))


class TestCompressionBehaviour:
    def test_zeros_compress_to_minimum(self) -> None:
        # Zero residuals: half a nibble-byte plus one payload byte per word.
        assert compression_ratio(np.zeros(4096)) == pytest.approx(1.5 / 8)

    def test_constant_array_compresses_well(self) -> None:
        assert compression_ratio(np.full(4096, np.pi)) < 0.25

    def test_random_data_does_not_compress(self, rng) -> None:
        ratio = compression_ratio(rng.normal(size=4096))
        assert ratio > 0.95

    def test_uniform_state_compresses(self) -> None:
        state = np.full(1024, 1 / 32, dtype=np.complex128)
        assert compression_ratio(state) < 0.25

    def test_more_segments_slightly_worse_ratio(self, rng) -> None:
        smooth = np.full(2048, 0.125)
        assert compression_ratio(smooth, 1) <= compression_ratio(smooth, 8) + 1e-9

    def test_empty_ratio_is_one(self) -> None:
        assert compression_ratio(np.empty(0)) == 1.0


class TestFormatErrors:
    @pytest.mark.parametrize(
        ("corrupt", "message"),
        [
            (lambda stream: stream[:2], "too short"),
            (lambda stream: b"X" + stream[1:], "magic"),
            (lambda stream: stream[:-5], "truncated segment"),
            (lambda stream: stream + b"\x00", "trailing"),
            (lambda stream: stream[:4] + (101).to_bytes(8, "little") + stream[12:],
             "promised 101 words"),
        ],
        ids=["short-header", "bad-magic", "truncated-segment", "trailing-bytes",
             "word-count-mismatch"],
    )
    def test_malformed_stream_rejected(self, corrupt, message: str) -> None:
        stream = compress(np.ones(100))
        with pytest.raises(CompressionError, match=message):
            decompress(corrupt(stream))

    def test_wrong_dtype_rejected(self) -> None:
        with pytest.raises(CompressionError, match="float64"):
            compress(np.ones(8, dtype=np.float32))

    def test_zero_segments_rejected(self) -> None:
        with pytest.raises(CompressionError):
            compress(np.ones(8), num_segments=0)
