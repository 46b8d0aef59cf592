"""Seeded, deterministic fault plans for the reliability layer.

A :class:`FaultPlan` decides - purely as a function of its seed and the
*position* of an operation (gate index, transfer ordinal within the gate,
retry attempt) - whether that operation is hit by a fault and which kind.
Because every decision is a stateless hash of ``(seed, position)``, the
same plan produces the identical fault sequence no matter how many times
it is queried, in what order, or whether a run was interrupted and
resumed mid-circuit.  That property is what makes fault-injection tests
reproducible and checkpoint/resume verifiable bit-for-bit.

Fault taxonomy (see ``docs/reliability.md``):

* ``BIT_FLIP`` - a transferred chunk arrives with one bit flipped;
* ``TRUNCATION`` - a transfer delivers only a prefix, the tail reads zero;
* ``DROP`` - the transfer never arrives at all;
* ``DECODE`` - the GFC codec fails to decode a compressed chunk;
* ``OOM`` - a host/device allocation fails.

These act on the functional engine only; the timed model prices the
fault-free timeline, as every figure of the paper does.

Service-layer kinds (injected by the batch service's ``chaos_plan``, not
by the transfer guard; a plan spec cannot spell them):

* ``WORKER_CRASH`` - a worker thread dies mid-job with an unexpected
  error;
* ``WORKER_STALL`` - a worker hangs (stops heartbeating) until the
  watchdog reaps it;
* ``CACHE_CORRUPT`` - a result-cache entry is corrupted at rest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.errors import FaultInjectionError

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


class FaultKind(str, Enum):
    """The kinds of fault a plan can inject."""

    BIT_FLIP = "bit_flip"
    TRUNCATION = "truncation"
    DROP = "drop"
    DECODE = "decode"
    OOM = "oom"
    WORKER_CRASH = "worker_crash"
    WORKER_STALL = "worker_stall"
    CACHE_CORRUPT = "cache_corrupt"


#: The kinds injected inside a simulation run; the rest act on the batch
#: service around it.
_IN_RUN_KINDS = frozenset(
    (FaultKind.BIT_FLIP, FaultKind.TRUNCATION, FaultKind.DROP, FaultKind.DECODE, FaultKind.OOM)
)

#: Conditional kind split for a transfer fault: mostly silent corruption
#: (the dangerous case CRC exists for), some truncations and full drops.
_TRANSFER_KIND_WEIGHTS = (
    (FaultKind.BIT_FLIP, 0.6),
    (FaultKind.TRUNCATION, 0.2),
    (FaultKind.DROP, 0.2),
)


@dataclass(frozen=True)
class FaultEvent:
    """One concrete injected (or forced) fault.

    Attributes:
        kind: What went wrong.
        gate_index: Gate (op) during which the fault fires.
        transfer_index: Transfer ordinal within the gate (0 for
            per-gate faults).
        attempt: Which delivery attempt is hit (0 = first try).
        detail: Kind-specific payload - the bit position for flips.
    """

    kind: FaultKind
    gate_index: int
    transfer_index: int = 0
    attempt: int = 0
    detail: float = 0.0


def _fnv(*parts: int) -> int:
    """Stateless 64-bit FNV-1a hash of a tuple of non-negative ints."""
    h = _FNV_OFFSET
    for part in parts:
        for byte in int(part).to_bytes(8, "little"):
            h ^= byte
            h = (h * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of injected faults.

    Rates are per-opportunity probabilities: ``transfer_rate`` applies to
    every (gate, transfer, attempt) triple, ``codec_rate`` to every
    compressed transfer receive.
    ``oom_failures`` fails the first that many allocation attempts
    outright (deterministic, for exercising degradation paths).

    Attributes:
        seed: Root of every hash decision.
        transfer_rate: P(bit-flip/truncation/drop) per transfer attempt.
        codec_rate: P(GFC decode failure) per compressed receive.
        oom_failures: Number of leading allocation attempts that fail.
        worker_crash_rate: P(worker dies mid-job) per (job, attempt).
        worker_stall_rate: P(worker hangs mid-job) per (job, attempt).
        cache_corrupt_rate: P(cache entry corrupted) per cache put.
        forced: Extra faults injected unconditionally at their positions.
    """

    seed: int = 0
    transfer_rate: float = 0.0
    codec_rate: float = 0.0
    oom_failures: int = 0
    worker_crash_rate: float = 0.0
    worker_stall_rate: float = 0.0
    cache_corrupt_rate: float = 0.0
    forced: tuple[FaultEvent, ...] = field(default=())

    def __post_init__(self) -> None:
        for name in (
            "transfer_rate",
            "codec_rate",
            "worker_crash_rate",
            "worker_stall_rate",
            "cache_corrupt_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultInjectionError(f"{name} must be in [0, 1], got {rate}")
        if self.oom_failures < 0:
            raise FaultInjectionError(
                f"oom_failures must be >= 0, got {self.oom_failures}"
            )

    # -- hashing ----------------------------------------------------------

    def _uniform(self, *parts: int) -> float:
        """Deterministic uniform draw in [0, 1) for one decision point."""
        return _fnv(self.seed, *parts) / 2.0**64

    # -- queries ----------------------------------------------------------

    def transfer_fault(
        self, gate_index: int, transfer_index: int, attempt: int
    ) -> FaultEvent | None:
        """The fault (if any) hitting one chunk-transfer attempt."""
        for event in self.forced:
            if (
                event.kind in (FaultKind.BIT_FLIP, FaultKind.TRUNCATION, FaultKind.DROP)
                and event.gate_index == gate_index
                and event.transfer_index == transfer_index
                and event.attempt == attempt
            ):
                return event
        if self._uniform(1, gate_index, transfer_index, attempt) >= self.transfer_rate:
            return None
        pick = self._uniform(2, gate_index, transfer_index, attempt)
        cumulative = 0.0
        kind = _TRANSFER_KIND_WEIGHTS[-1][0]
        for candidate, weight in _TRANSFER_KIND_WEIGHTS:
            cumulative += weight
            if pick < cumulative:
                kind = candidate
                break
        detail = float(_fnv(self.seed, 3, gate_index, transfer_index, attempt) % 64)
        return FaultEvent(kind, gate_index, transfer_index, attempt, detail)

    def codec_fault(
        self, gate_index: int, transfer_index: int, attempt: int
    ) -> FaultEvent | None:
        """The decode failure (if any) hitting one compressed receive."""
        for event in self.forced:
            if (
                event.kind is FaultKind.DECODE
                and event.gate_index == gate_index
                and event.transfer_index == transfer_index
                and event.attempt == attempt
            ):
                return event
        if self._uniform(4, gate_index, transfer_index, attempt) >= self.codec_rate:
            return None
        return FaultEvent(FaultKind.DECODE, gate_index, transfer_index, attempt)

    def oom_fault(self, alloc_index: int) -> bool:
        """True when allocation attempt ``alloc_index`` fails."""
        if any(
            e.kind is FaultKind.OOM and e.gate_index == alloc_index for e in self.forced
        ):
            return True
        return alloc_index < self.oom_failures

    # -- service-layer queries (chaos harness) -----------------------------

    def _forced_at(self, kind: FaultKind, gate_index: int, attempt: int = 0) -> bool:
        return any(
            e.kind is kind and e.gate_index == gate_index and e.attempt == attempt
            for e in self.forced
        )

    def worker_crash(self, job_seq: int, attempt: int) -> bool:
        """True when this (job, attempt) execution dies mid-run."""
        if self._forced_at(FaultKind.WORKER_CRASH, job_seq, attempt):
            return True
        return self._uniform(7, job_seq, attempt) < self.worker_crash_rate

    def worker_stall(self, job_seq: int, attempt: int) -> bool:
        """True when this (job, attempt) execution hangs until reaped."""
        if self._forced_at(FaultKind.WORKER_STALL, job_seq, attempt):
            return True
        return self._uniform(8, job_seq, attempt) < self.worker_stall_rate

    def cache_corrupt(self, put_index: int) -> bool:
        """True when the ``put_index``-th cache store is corrupted at rest."""
        if self._forced_at(FaultKind.CACHE_CORRUPT, put_index):
            return True
        return self._uniform(10, put_index) < self.cache_corrupt_rate

    @property
    def active(self) -> bool:
        """True when this plan can inject a fault into a simulation run
        (the service-layer rates and events never act inside one)."""
        return bool(
            self.transfer_rate
            or self.codec_rate
            or self.oom_failures
            or any(event.kind in _IN_RUN_KINDS for event in self.forced)
        )

    # -- spec parsing ------------------------------------------------------

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse a ``key=value`` spec, e.g. ``seed=7,transfer=0.05,oom=1``.

        Keys: ``seed`` (int), ``transfer`` / ``codec`` (float rates) and
        ``oom`` (int, leading allocation failures).  Only the in-run kinds
        are spellable: the service-layer rates are set through the
        constructor.
        """
        kwargs: dict[str, float | int] = {}
        names = {
            "seed": ("seed", int),
            "transfer": ("transfer_rate", float),
            "codec": ("codec_rate", float),
            "oom": ("oom_failures", int),
        }
        for clause in filter(None, (c.strip() for c in spec.split(","))):
            key, _, value = clause.partition("=")
            if key not in names or not value:
                raise FaultInjectionError(
                    f"bad fault-plan clause {clause!r}; keys: {sorted(names)}"
                )
            attr, cast = names[key]
            try:
                kwargs[attr] = cast(value)
            except ValueError as error:
                raise FaultInjectionError(
                    f"bad fault-plan value in {clause!r}: {error}"
                ) from error
        return cls(**kwargs)

    def to_spec(self) -> str:
        """Inverse of :meth:`from_spec` (forced events and service-layer
        rates are not spellable)."""
        return (
            f"seed={self.seed},transfer={self.transfer_rate},"
            f"codec={self.codec_rate},oom={self.oom_failures}"
        )

    def describe(self) -> str:
        parts = [f"seed {self.seed}"]
        if self.transfer_rate:
            parts.append(f"transfer faults {self.transfer_rate:.1%}")
        if self.codec_rate:
            parts.append(f"codec faults {self.codec_rate:.1%}")
        if self.oom_failures:
            parts.append(f"{self.oom_failures} OOM alloc failure(s)")
        if self.forced:
            parts.append(f"{len(self.forced)} forced event(s)")
        return ", ".join(parts) if len(parts) > 1 else f"seed {self.seed} (no faults)"
