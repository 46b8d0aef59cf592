"""Tests for residual analysis (Fig. 10 machinery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.residual import (
    consecutive_residuals,
    residual_stats,
)
from repro.errors import CompressionError


class TestConsecutiveResiduals:
    def test_componentwise_not_interleaved(self) -> None:
        # Amplitudes (1+2j, 1+2j): both component residuals are zero; a
        # naive interleaved diff would report im-re cross terms instead.
        amplitudes = np.array([1 + 2j, 1 + 2j], dtype=np.complex128)
        np.testing.assert_array_equal(
            consecutive_residuals(amplitudes), [0.0, 0.0]
        )

    def test_values(self) -> None:
        amplitudes = np.array([1 + 1j, 3 + 5j, 0 + 0j], dtype=np.complex128)
        np.testing.assert_array_equal(
            consecutive_residuals(amplitudes), [2.0, 4.0, -3.0, -5.0]
        )

    def test_accepts_float_stream(self) -> None:
        doubles = np.array([1.0, 0.0, 2.0, 0.0])
        np.testing.assert_array_equal(consecutive_residuals(doubles), [1.0, 0.0])

    def test_short_input_yields_empty(self) -> None:
        assert consecutive_residuals(np.array([1 + 1j])).size == 0

    def test_rejects_wrong_dtype(self) -> None:
        with pytest.raises(CompressionError):
            consecutive_residuals(np.ones(8, dtype=np.int64))


class TestStats:
    def test_constant_state_all_near_zero(self) -> None:
        stats = residual_stats(np.full(64, 0.5 + 0.5j, dtype=np.complex128))
        assert stats.near_zero_fraction == 1.0
        assert stats.mean_abs == 0.0

    def test_spread_state_not_near_zero(self, rng) -> None:
        amplitudes = (rng.normal(size=256) + 1j * rng.normal(size=256)).astype(
            np.complex128
        )
        stats = residual_stats(amplitudes, tolerance=1e-6)
        assert stats.near_zero_fraction < 0.1
        assert stats.p95_abs > stats.mean_abs > 0

    def test_empty_input(self) -> None:
        stats = residual_stats(np.zeros(1, dtype=np.complex128))
        assert stats.near_zero_fraction == 1.0

