"""Recovery policies and the per-run reliability report.

A :class:`RecoveryPolicy` says what the engine does when a guard detects
a fault: how many delivery attempts a transfer gets, how retry backoff
grows, whether detection raises immediately, when the norm invariant is
checked, and which graceful degradations are allowed (disable
compression after repeated codec faults, halve the chunk size after
OOM).  A :class:`ReliabilityReport` accumulates what actually happened
so callers - and the CLI - can see the overhead reliability cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FaultInjectionError


@dataclass(frozen=True)
class RecoveryPolicy:
    """Knobs governing fault detection and recovery.

    Attributes:
        max_transfer_attempts: Delivery attempts per chunk transfer
            (1 = no retry; detection raises).
        backoff_base: Modelled seconds the batch service charges before a
            job's first retry (``retry_backoff_seconds``; nothing sleeps).
        backoff_factor: Multiplier applied per further retry (exponential
            backoff).
        on_fault: ``"retry"`` recovers within the attempt budget;
            ``"raise"`` turns the first detected fault into a typed error.
        verify_crc: Compute/verify per-chunk CRC32 at send/receive.  With
            this off, corruption lands in the state (the norm guard is
            then the only line of defence).
        norm_check_every: Check norm conservation every N gate layers
            (0 disables the check).
        norm_tolerance: Allowed |1 - ||psi||^2| drift.
        codec_fault_limit: After this many GFC decode faults, disable
            compression for the rest of the run (graceful degradation).
        halve_chunk_on_oom: Retry a failed allocation with half the chunk
            size instead of aborting.
        max_alloc_attempts: Allocation attempts before giving up.
    """

    max_transfer_attempts: int = 4
    backoff_base: float = 1e-3
    backoff_factor: float = 2.0
    on_fault: str = "retry"
    verify_crc: bool = True
    norm_check_every: int = 0
    norm_tolerance: float = 1e-6
    codec_fault_limit: int = 3
    halve_chunk_on_oom: bool = True
    max_alloc_attempts: int = 4

    def __post_init__(self) -> None:
        if self.max_transfer_attempts < 1:
            raise FaultInjectionError(
                f"max_transfer_attempts must be >= 1, got {self.max_transfer_attempts}"
            )
        if self.on_fault not in ("retry", "raise"):
            raise FaultInjectionError(
                f"on_fault must be 'retry' or 'raise', got {self.on_fault!r}"
            )
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise FaultInjectionError("backoff must be non-negative and non-shrinking")

    def backoff_seconds(self, retry_number: int) -> float:
        """Wait charged before retry ``retry_number`` (1-based)."""
        return self.backoff_base * self.backoff_factor ** (retry_number - 1)


#: Default: detect and recover.
DEFAULT_POLICY = RecoveryPolicy()
#: Fail fast: any detected fault raises immediately.
STRICT_POLICY = RecoveryPolicy(max_transfer_attempts=1, on_fault="raise")


@dataclass
class ReliabilityReport:
    """What the reliability layer observed and did during one run.

    Attributes:
        transfers: Guarded chunk transfers performed.
        faults: Injected-fault counts keyed by kind name.
        retries: Extra delivery attempts spent recovering.
        checkpoints_written: Checkpoint files written.
        resumed_from_gate: Gate cursor the run resumed at (None = fresh).
        compression_disabled_at_gate: Gate index where codec degradation
            kicked in (None = never).
        degraded_chunk_bits: Final chunk size after OOM degradation
            (None = never degraded).
    """

    transfers: int = 0
    faults: dict[str, int] = field(default_factory=dict)
    retries: int = 0
    checkpoints_written: int = 0
    resumed_from_gate: int | None = None
    compression_disabled_at_gate: int | None = None
    degraded_chunk_bits: int | None = None

    def record_fault(self, kind: str) -> None:
        self.faults[kind] = self.faults.get(kind, 0) + 1

    @property
    def total_faults(self) -> int:
        return sum(self.faults.values())

    def summary(self) -> str:
        """One human-readable paragraph for CLI output."""
        lines = [
            f"transfers guarded     : {self.transfers}",
            f"faults injected       : {self.total_faults}"
            + (f"  ({', '.join(f'{k}={v}' for k, v in sorted(self.faults.items()))})"
               if self.faults else ""),
            f"retries spent         : {self.retries}",
            f"checkpoints written   : {self.checkpoints_written}",
        ]
        if self.resumed_from_gate is not None:
            lines.append(f"resumed from gate     : {self.resumed_from_gate}")
        if self.compression_disabled_at_gate is not None:
            lines.append(
                f"compression disabled  : at gate {self.compression_disabled_at_gate}"
            )
        if self.degraded_chunk_bits is not None:
            lines.append(
                f"chunk size degraded   : to 2^{self.degraded_chunk_bits} amplitudes"
            )
        return "\n".join(lines)
