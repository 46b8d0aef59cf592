"""Tests for CRC guards, norm checks, and the transfer guard."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import FaultInjectionError, IntegrityError
from repro.reliability import (
    ChunkTransferGuard,
    FaultEvent,
    FaultKind,
    FaultPlan,
    RecoveryPolicy,
    check_norm,
    chunk_crc32,
    verify_chunk,
)


@pytest.fixture
def chunk(rng) -> np.ndarray:
    return (rng.normal(size=64) + 1j * rng.normal(size=64)).astype(np.complex128)


class TestCrc:
    def test_crc_stable(self, chunk) -> None:
        assert chunk_crc32(chunk) == chunk_crc32(chunk.copy())

    def test_any_bit_flip_detected(self, chunk) -> None:
        crc = chunk_crc32(chunk)
        for bit in (0, 7, 100, 64 * 16 * 8 - 1):
            corrupted = chunk.copy()
            raw = corrupted.view(np.uint8)
            raw[bit // 8] ^= np.uint8(1 << (bit % 8))
            with pytest.raises(IntegrityError, match="CRC32"):
                verify_chunk(corrupted, crc)

    def test_clean_chunk_verifies(self, chunk) -> None:
        verify_chunk(chunk, chunk_crc32(chunk))


class TestNorm:
    def test_normalised_state_passes(self) -> None:
        state = np.zeros(16, dtype=np.complex128)
        state[0] = 1.0
        assert check_norm(state) == 0.0  # the deviation |1 - ||psi||^2|

    def test_chunk_list_accepted(self) -> None:
        chunks = [np.full(4, 0.25 + 0j), np.full(4, 0.25 + 0j)]
        chunks[0] *= np.sqrt(1 / (8 * 0.0625))
        chunks[1] *= np.sqrt(1 / (8 * 0.0625))
        check_norm(chunks, tolerance=1e-9)

    def test_complex64_is_accumulated_in_float64(self, rng) -> None:
        amplitudes = rng.normal(size=1 << 16) + 1j * rng.normal(size=1 << 16)
        state = (amplitudes / np.linalg.norm(amplitudes)).astype(np.complex64)
        widened = state.astype(np.complex128)
        expected = abs(1.0 - float(np.sum(widened.real**2 + widened.imag**2)))
        assert check_norm(state) == pytest.approx(expected, abs=1e-13)

    def test_violation_raises(self) -> None:
        state = np.zeros(8, dtype=np.complex128)
        state[0] = 0.9
        with pytest.raises(IntegrityError, match="norm conservation"):
            check_norm(state)


class TestGuardRecovery:
    def test_faultless_guard_is_identity(self, chunk) -> None:
        guard = ChunkTransferGuard()
        received = guard.transfer(chunk)
        np.testing.assert_array_equal(received.view(np.uint64), chunk.view(np.uint64))
        assert received is not chunk  # a copy, like a real transfer

    @pytest.mark.parametrize(
        "kind", [FaultKind.BIT_FLIP, FaultKind.TRUNCATION, FaultKind.DROP]
    )
    def test_single_fault_recovers_bit_identical(self, chunk, kind) -> None:
        plan = FaultPlan(seed=0, forced=(FaultEvent(kind, 0, 0, attempt=0, detail=13),))
        guard = ChunkTransferGuard(plan)
        guard.begin_gate(0)
        received = guard.transfer(chunk)
        np.testing.assert_array_equal(received.view(np.uint64), chunk.view(np.uint64))
        assert guard.report.retries == 1
        assert guard.report.faults[kind.value] == 1

    def test_exhausted_retries_raise(self, chunk) -> None:
        forced = tuple(
            FaultEvent(FaultKind.BIT_FLIP, 0, 0, attempt=a) for a in range(4)
        )
        guard = ChunkTransferGuard(FaultPlan(seed=0, forced=forced))
        guard.begin_gate(0)
        with pytest.raises(FaultInjectionError, match="after 4 attempts"):
            guard.transfer(chunk)

    def test_strict_policy_raises_on_detection(self, chunk) -> None:
        plan = FaultPlan(seed=0, forced=(FaultEvent(FaultKind.BIT_FLIP, 0, 0),))
        guard = ChunkTransferGuard(
            plan, RecoveryPolicy(max_transfer_attempts=1, on_fault="raise")
        )
        guard.begin_gate(0)
        with pytest.raises(IntegrityError, match="forbids retry"):
            guard.transfer(chunk)

    def test_crc_off_lets_corruption_through(self, chunk) -> None:
        plan = FaultPlan(seed=0, forced=(FaultEvent(FaultKind.BIT_FLIP, 0, 0, detail=5),))
        guard = ChunkTransferGuard(plan, RecoveryPolicy(verify_crc=False))
        guard.begin_gate(0)
        received = guard.transfer(chunk)
        assert not np.array_equal(received.view(np.uint64), chunk.view(np.uint64))

    def test_drop_detected_even_without_crc(self, chunk) -> None:
        plan = FaultPlan(seed=0, forced=(FaultEvent(FaultKind.DROP, 0, 0),))
        guard = ChunkTransferGuard(plan, RecoveryPolicy(verify_crc=False))
        guard.begin_gate(0)
        received = guard.transfer(chunk)  # retried: a missing chunk is always seen
        np.testing.assert_array_equal(received.view(np.uint64), chunk.view(np.uint64))


class TestCodecDegradation:
    def test_compression_disabled_after_limit(self, chunk) -> None:
        forced = tuple(
            FaultEvent(FaultKind.DECODE, g, 0, attempt=0) for g in range(3)
        )
        guard = ChunkTransferGuard(
            FaultPlan(seed=0, forced=forced),
            RecoveryPolicy(codec_fault_limit=3),
            compression=True,
        )
        for gate in range(5):
            guard.begin_gate(gate)
            guard.transfer(chunk)
        assert guard.report.compression_disabled_at_gate == 2
        assert not guard.compression_enabled
        assert guard.report.faults[FaultKind.DECODE.value] == 3

    def test_codec_faults_ignored_without_compression(self, chunk) -> None:
        guard = ChunkTransferGuard(
            FaultPlan(seed=0, codec_rate=1.0), compression=False
        )
        guard.begin_gate(0)
        guard.transfer(chunk)
        assert guard.report.total_faults == 0
