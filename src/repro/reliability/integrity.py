"""Integrity guards: per-chunk CRC32, norm conservation, guarded transfers.

Q-GPU streams every live chunk across the PCIe link on every gate, so a
single silently corrupted copy poisons the final state.  The guards here
mirror what a production out-of-core runtime does:

* :func:`chunk_crc32` / :func:`verify_chunk` - checksum a chunk's raw
  bytes at "send" and verify at "receive";
* :func:`check_norm` - assert the global invariant ||psi||_2 ~= 1 that
  every unitary circuit preserves (a cheap end-to-end corruption tripwire
  that works even when per-transfer CRC is off), measured by
  :func:`norm_deviation`;
* :class:`ChunkTransferGuard` - the send/link/receive simulation the
  functional engine streams live chunk groups through around each op,
  applying a
  :class:`~repro.reliability.faults.FaultPlan` on the link and a
  :class:`~repro.reliability.policy.RecoveryPolicy` on detection.
"""

from __future__ import annotations

import zlib
from contextlib import nullcontext

import numpy as np

from repro.errors import FaultInjectionError, IntegrityError
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.reliability.faults import FaultEvent, FaultKind, FaultPlan
from repro.reliability.policy import DEFAULT_POLICY, RecoveryPolicy, ReliabilityReport


def chunk_crc32(array: np.ndarray) -> int:
    """CRC32 of a chunk's raw little-endian bytes."""
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


def verify_chunk(array: np.ndarray, expected_crc: int, label: str = "chunk") -> None:
    """Raise :class:`IntegrityError` unless ``array`` matches its checksum."""
    actual = chunk_crc32(array)
    if actual != expected_crc:
        raise IntegrityError(
            f"{label}: CRC32 mismatch (expected {expected_crc:#010x}, "
            f"got {actual:#010x})"
        )


def norm_deviation(amplitudes: np.ndarray) -> float:
    """``|1 - sum |amp|^2|`` with the accumulation done in float64.

    Accumulating in the state's own precision would hide exactly the
    rounding this guard exists to surface, so real and imaginary parts
    are widened before squaring regardless of input dtype.
    """
    real = amplitudes.real.astype(np.float64, copy=False)
    imag = amplitudes.imag.astype(np.float64, copy=False)
    total = float(np.sum(real * real) + np.sum(imag * imag))
    return abs(1.0 - total)


def check_norm(
    amplitudes, tolerance: float = 1e-6, where: str = "state"
) -> float:
    """Verify the norm of a dense vector or an iterable of chunk arrays;
    returns its :func:`norm_deviation` on success.

    Raises:
        IntegrityError: When |1 - ||psi||^2| exceeds ``tolerance``.
    """
    if not isinstance(amplitudes, np.ndarray):
        amplitudes = np.concatenate(list(amplitudes))
    deviation = norm_deviation(amplitudes)
    if deviation > tolerance:
        raise IntegrityError(
            f"{where}: norm conservation violated (|1 - ||psi||^2| = "
            f"{deviation:.3g}, tolerance {tolerance:g})"
        )
    return deviation


def _corrupt(buffer: np.ndarray, event: FaultEvent) -> np.ndarray | None:
    """Apply one link fault to a received buffer (in place); None = dropped."""
    if event.kind is FaultKind.DROP:
        return None
    raw = buffer.view(np.uint8)
    if event.kind is FaultKind.BIT_FLIP:
        bit = int(event.detail) % (raw.size * 8)
        raw[bit // 8] ^= np.uint8(1 << (bit % 8))
    elif event.kind is FaultKind.TRUNCATION:
        raw[raw.size // 2 :] = 0
    return buffer


class ChunkTransferGuard:
    """Simulated send -> link -> receive path for chunk buffers.

    Every :meth:`transfer` models one one-way chunk copy: checksum at
    send, fault injection on the link, checksum verification at receive,
    and bounded retry from the pristine source.  On success the returned
    buffer is bit-identical to the input, so recovered faults can never
    change simulation results.

    Args:
        plan: Fault plan applied on the link (None = fault-free).
        policy: Detection/recovery policy.
        compression: Whether the wire is compressed (enables codec-decode
            faults, which count toward ``policy.codec_fault_limit``).
        report: Shared report to accumulate into (a fresh one by default).
        tracer: Optional :class:`~repro.obs.Tracer`; transfers, raw bytes
            on the wire, retries, and faults by kind land in its counters,
            and each retransmission becomes a ``retry``-stage span.
    """

    def __init__(
        self,
        plan: FaultPlan | None = None,
        policy: RecoveryPolicy = DEFAULT_POLICY,
        compression: bool = False,
        report: ReliabilityReport | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.plan = plan if plan is not None and plan.active else None
        self.policy = policy
        self.compression = compression
        self.report = report if report is not None else ReliabilityReport()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._counters = self.tracer.counters if self.tracer is not NULL_TRACER else None
        self._gate_index = 0
        self._transfer_in_gate = 0
        self._codec_faults = 0

    @property
    def compression_enabled(self) -> bool:
        """False once codec degradation disabled compression."""
        return (
            self.compression
            and self.report.compression_disabled_at_gate is None
        )

    def begin_gate(self, gate_index: int) -> None:
        """Anchor fault positions to the gate, so resume replays identically."""
        self._gate_index = gate_index
        self._transfer_in_gate = 0

    def _fault_for(self, attempt: int, transfer_index: int) -> FaultEvent | None:
        if self.plan is None:
            return None
        if self.compression_enabled:
            codec = self.plan.codec_fault(self._gate_index, transfer_index, attempt)
            if codec is not None:
                return codec
        return self.plan.transfer_fault(self._gate_index, transfer_index, attempt)

    def _note_codec_fault(self) -> None:
        self._codec_faults += 1
        if (
            self.report.compression_disabled_at_gate is None
            and self._codec_faults >= self.policy.codec_fault_limit
        ):
            # Graceful degradation: stop compressing, stop failing to decode.
            self.report.compression_disabled_at_gate = self._gate_index

    def stream(self, state, groups: list[tuple[int, ...]], direction: str) -> None:
        """Carry each chunk group of ``state`` (a ``ChunkedStateVector``)
        across the link one way: ``direction`` is ``"h2d"`` or ``"d2h"``.

        A group crosses as one buffer (one :meth:`transfer`, one span), in
        order, on the calling thread; the received buffer is written back
        into the group's chunks, so a fault the guard lets through lands
        in the state itself.
        """
        chunks = state.chunks
        size = state.chunk_size
        for members in groups:
            where = "chunk" if len(members) == 1 else "group"
            with self.tracer.span(direction, stage=direction, **{where: members[0]}):
                received = self.transfer(
                    np.concatenate([chunks[member] for member in members]),
                    f"{direction} {where} {members[0]}",
                )
            for rank, member in enumerate(members):
                chunks[member][...] = received[rank * size : (rank + 1) * size]

    def transfer(self, source: np.ndarray, label: str = "") -> np.ndarray:
        """Deliver ``source`` across the guarded link; returns the copy.

        Raises:
            IntegrityError: Detected corruption under ``on_fault="raise"``.
            FaultInjectionError: Retries exhausted without a clean copy.
        """
        transfer_index = self._transfer_in_gate
        self._transfer_in_gate += 1
        self.report.transfers += 1
        counters = self._counters
        if counters is not None:
            counters.count("reliability.transfers")
        where = label or f"gate {self._gate_index} transfer {transfer_index}"

        sent_crc = chunk_crc32(source) if self.policy.verify_crc else None
        last_kind = "fault"
        for attempt in range(self.policy.max_transfer_attempts):
            if attempt:
                self.report.retries += 1
                if counters is not None:
                    counters.count("reliability.retries")
            retry_span = (
                self.tracer.span("retransmit", stage="retry", attempt=attempt)
                if attempt and self.tracer.enabled
                else nullcontext()
            )
            with retry_span:
                if counters is not None:
                    counters.add("bytes.moved_raw", source.nbytes)
                received: np.ndarray | None = source.copy()
                event = self._fault_for(attempt, transfer_index)
                if event is not None:
                    self.report.record_fault(event.kind.value)
                    last_kind = event.kind.value
                    if counters is not None:
                        counters.count(f"faults.{event.kind.value}")
                    if event.kind is FaultKind.DECODE:
                        self._note_codec_fault()
                        received = None  # undecodable payload delivers nothing
                    else:
                        received = _corrupt(received, event)

                if received is None:
                    detected = True  # missing/undecodable chunks are always seen
                elif sent_crc is not None:
                    detected = chunk_crc32(received) != sent_crc
                else:
                    detected = False  # CRC off: corruption sails through

                if not detected:
                    return received  # type: ignore[return-value]
                if self.policy.on_fault == "raise":
                    raise IntegrityError(
                        f"{where}: {last_kind} detected (CRC32 mismatch) and "
                        "policy forbids retry"
                    )
        raise FaultInjectionError(
            f"{where}: still corrupted ({last_kind}) after "
            f"{self.policy.max_transfer_attempts} attempts"
        )
