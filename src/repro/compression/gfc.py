"""GFC-style lossless floating-point compression (O'Neil & Burtscher).

The paper compresses non-zero state amplitudes on the GPU with the GFC
algorithm before every device-to-host copy (Section IV-D).  This module is a
bit-exact CPU implementation of the same coding scheme:

* the double stream is split into *segments* (one per GPU warp in the
  original; independent units here),
* each segment is processed in *micro-chunks* of 32 doubles (one per warp
  lane),
* lane ``j`` predicts its double from the same lane of the previous
  micro-chunk and takes the 64-bit integer difference (the first micro-chunk
  is predicted from zeros),
* each residual is coded as a 4-bit prefix - one sign bit plus a 3-bit count
  of leading zero *bytes* (capped at 7) - followed by the remaining
  significant bytes, little-endian.

The codec is lossless for every bit pattern, including NaN, infinities and
negative zero, because it operates on raw IEEE-754 words.  Compression
*ratio* (compressed/uncompressed) is the quantity the executor feeds into
the transfer model; the GPU codec's *throughput* is modelled separately in
:mod:`repro.hardware.machine`.

Stream layout::

    magic "GFC1" | uint64 word count | uint32 segment count
    per segment: uint64 word count, uint64 payload byte count,
                 nibble area (2 words/byte, zero-padded), payload bytes
"""

from __future__ import annotations

import struct

import numpy as np

from repro.errors import CompressionError

MAGIC = b"GFC1"
MICRO_CHUNK = 32
_HEADER = struct.Struct("<4sQI")
_SEGMENT_HEADER = struct.Struct("<QQ")

# Thresholds for "number of significant bytes": value v needs k bytes when
# 2^(8(k-1)) <= v < 2^(8k); v = 0 still emits one byte (GFC's zero code).
_BYTE_THRESHOLDS = np.array([1 << (8 * k) for k in range(1, 8)], dtype=np.uint64)


def _to_words(data: np.ndarray) -> np.ndarray:
    """View ``data`` as little-endian uint64 words without copying values."""
    array = np.ascontiguousarray(data)
    if array.dtype == np.complex128:
        array = array.view(np.float64)
    if array.dtype != np.float64:
        raise CompressionError(f"GFC compresses float64/complex128, got {array.dtype}")
    return array.view("<u8").ravel()


def _residuals(words: np.ndarray) -> np.ndarray:
    """Per-lane differences between consecutive micro-chunks (wrapping)."""
    padded_len = -(-len(words) // MICRO_CHUNK) * MICRO_CHUNK
    padded = np.zeros(padded_len, dtype=np.uint64)
    padded[: len(words)] = words
    lanes = padded.reshape(-1, MICRO_CHUNK)
    previous = np.zeros_like(lanes)
    previous[1:] = lanes[:-1]
    return (lanes - previous).ravel()  # uint64 wraps mod 2^64


def _integrate(residuals: np.ndarray) -> np.ndarray:
    """Invert :func:`_residuals` via a wrapping per-lane cumulative sum."""
    lanes = residuals.reshape(-1, MICRO_CHUNK)
    return np.cumsum(lanes, axis=0, dtype=np.uint64).ravel()


def _encode_segment(words: np.ndarray) -> bytes:
    residuals = _residuals(words)
    # Signed-magnitude form: treat the wrapped difference as int64.
    negative = residuals >= np.uint64(1 << 63)
    magnitudes = np.where(
        negative, np.uint64(0) - residuals, residuals
    )  # two's complement negation, wrapping

    significant = (
        np.searchsorted(_BYTE_THRESHOLDS, magnitudes, side="right") + 1
    ).astype(np.int64)

    prefixes = (negative.astype(np.uint8) << 3) | (8 - significant).astype(np.uint8)
    if len(prefixes) % 2:
        prefixes = np.append(prefixes, np.uint8(0))
    nibble_area = (prefixes[0::2] | (prefixes[1::2] << 4)).tobytes()

    raw = magnitudes.astype("<u8").view(np.uint8).reshape(-1, 8)
    keep = np.arange(8)[None, :] < significant[:, None]
    payload = raw[keep].tobytes()

    return (
        _SEGMENT_HEADER.pack(len(words), len(payload)) + nibble_area + payload
    )


def _decode_segment(buffer: memoryview, offset: int) -> tuple[np.ndarray, int]:
    if offset + _SEGMENT_HEADER.size > len(buffer):
        raise CompressionError("truncated segment header")
    word_count, payload_bytes = _SEGMENT_HEADER.unpack_from(buffer, offset)
    offset += _SEGMENT_HEADER.size

    padded_words = -(-word_count // MICRO_CHUNK) * MICRO_CHUNK
    nibble_bytes = -(-padded_words // 2)
    if offset + nibble_bytes + payload_bytes > len(buffer):
        raise CompressionError("truncated segment body")

    packed = np.frombuffer(buffer, dtype=np.uint8, count=nibble_bytes, offset=offset)
    offset += nibble_bytes
    prefixes = np.empty(nibble_bytes * 2, dtype=np.uint8)
    prefixes[0::2] = packed & 0x0F
    prefixes[1::2] = packed >> 4
    prefixes = prefixes[:padded_words]

    negative = (prefixes >> 3).astype(bool)
    significant = (8 - (prefixes & 0x07)).astype(np.int64)

    payload = np.frombuffer(buffer, dtype=np.uint8, count=payload_bytes, offset=offset)
    offset += payload_bytes
    if int(significant.sum()) != payload_bytes:
        raise CompressionError("segment payload size mismatch")

    raw = np.zeros((padded_words, 8), dtype=np.uint8)
    keep = np.arange(8)[None, :] < significant[:, None]
    raw[keep] = payload
    magnitudes = raw.view("<u8").ravel()

    residuals = np.where(negative, np.uint64(0) - magnitudes, magnitudes)
    words = _integrate(residuals)[:word_count]
    return words, offset


def compress(data: np.ndarray, num_segments: int = 1) -> bytes:
    """Compress a float64/complex128 array into a GFC stream.

    Args:
        data: Array to compress (flattened in C order).
        num_segments: Independent segments; on the GPU each is one warp's
            work unit, so more segments mean more codec parallelism (and a
            marginally worse ratio, since each restarts its predictor).

    Returns:
        The compressed byte stream (see module docstring for layout).
    """
    if num_segments < 1:
        raise CompressionError("num_segments must be >= 1")
    words = _to_words(data)
    num_segments = min(num_segments, max(1, len(words)))
    bounds = np.linspace(0, len(words), num_segments + 1).astype(np.int64)
    # Align interior boundaries to micro-chunk multiples so every segment's
    # lane structure is self-contained.
    bounds[1:-1] = (bounds[1:-1] // MICRO_CHUNK) * MICRO_CHUNK
    parts = [_HEADER.pack(MAGIC, len(words), num_segments)]
    for s in range(num_segments):
        parts.append(_encode_segment(words[bounds[s] : bounds[s + 1]]))
    return b"".join(parts)


def decompress(stream: bytes) -> np.ndarray:
    """Decompress a GFC stream back into the exact original float64 array.

    Complex inputs round-trip as ``result.view(np.complex128)``.
    """
    buffer = memoryview(stream)
    if len(buffer) < _HEADER.size:
        raise CompressionError("stream too short for header")
    magic, word_count, num_segments = _HEADER.unpack_from(buffer, 0)
    if magic != MAGIC:
        raise CompressionError(f"bad magic {magic!r}")
    offset = _HEADER.size
    segments: list[np.ndarray] = []
    for _ in range(num_segments):
        words, offset = _decode_segment(buffer, offset)
        segments.append(words)
    if offset != len(buffer):
        raise CompressionError("trailing bytes after final segment")
    words = np.concatenate(segments) if segments else np.empty(0, dtype=np.uint64)
    if len(words) != word_count:
        raise CompressionError(
            f"stream promised {word_count} words, decoded {len(words)}"
        )
    return words.astype("<u8").view(np.float64)


def compression_ratio(data: np.ndarray, num_segments: int = 1) -> float:
    """``compressed bytes / uncompressed bytes`` for ``data`` (header-free).

    Subtracts the fixed stream/segment headers so the ratio reflects the
    coding itself, matching how per-chunk ratios drive the transfer model.
    """
    words = _to_words(data)
    if len(words) == 0:
        return 1.0
    stream = compress(data, num_segments=num_segments)
    overhead = _HEADER.size + num_segments * _SEGMENT_HEADER.size
    return (len(stream) - overhead) / (8 * len(words))
