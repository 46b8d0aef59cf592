"""Job model and lifecycle state machine for the batch service.

A :class:`Job` is one simulation request flowing through the service:

::

    PENDING --> ADMITTED --> RUNNING --> SUCCEEDED
       |            |           |
       v            v           v
    CANCELLED   CANCELLED     FAILED --> PENDING   (retry)

plus ``RUNNING -> CANCELLED`` (cooperative cancellation of a live run)
and ``ADMITTED -> PENDING`` (restart-recovery re-queue).
Transitions are validated by :meth:`Job.transition`; anything outside the
map above raises :class:`~repro.errors.ServiceError`.  The ``FAILED ->
PENDING`` edge is the retry path - whether it is taken, and how often, is
decided by the service's :class:`~repro.reliability.policy.RecoveryPolicy`,
not by the job itself.  ``ADMITTED -> PENDING`` is the restart-recovery
edge: a journal that ends with a job ADMITTED (the scheduler died between
admission and dispatch) re-queues it without charging an attempt.

The :class:`JobSpec` names the workload declaratively (family/width/seed or
inline QASM, version, shots) so jobs serialize to the JSONL journal and to
manifest files, and so a canonical **cache key** can be derived from the
circuit fingerprint plus every knob that affects the result.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.circuits.circuit import QuantumCircuit
from repro.errors import ServiceError


class JobState(str, Enum):
    """Lifecycle states of a service job."""

    PENDING = "PENDING"
    ADMITTED = "ADMITTED"
    RUNNING = "RUNNING"
    SUCCEEDED = "SUCCEEDED"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"


#: Legal lifecycle transitions.  ``FAILED -> PENDING`` is the retry edge,
#: ``ADMITTED -> PENDING`` the restart-recovery re-queue, and
#: ``RUNNING -> CANCELLED`` cooperative cancellation of a live run.
ALLOWED_TRANSITIONS: dict[JobState, frozenset[JobState]] = {
    JobState.PENDING: frozenset({JobState.ADMITTED, JobState.CANCELLED}),
    JobState.ADMITTED: frozenset(
        {JobState.RUNNING, JobState.CANCELLED, JobState.PENDING}
    ),
    JobState.RUNNING: frozenset(
        {JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED}
    ),
    JobState.FAILED: frozenset({JobState.PENDING}),
    JobState.SUCCEEDED: frozenset(),
    JobState.CANCELLED: frozenset(),
}


@dataclass(frozen=True)
class JobSpec:
    """Declarative description of one simulation request.

    Attributes:
        family: Benchmark family (mutually exclusive with ``qasm``).
        qubits: Register width (ignored when ``qasm`` is given).
        seed: Generator seed for randomised families; also the sampling
            seed for ``shots``.
        qasm: Inline OpenQASM 2.0 text instead of a family.
        version: Execution version name (key of ``VERSIONS_BY_NAME``).
        shots: Measurement shots sampled from the final state (0 = none).
        priority: Larger runs earlier under the priority policy.
        chunk_bits: Within-chunk qubits override for the functional engine.
        fault_plan: Fault-plan spec string injected into the run
            (see :meth:`repro.reliability.FaultPlan.from_spec`).
        deadline_seconds: Wall-clock budget for one execution attempt;
            the watchdog reaps a RUNNING job that exceeds it.  ``None``
            means no deadline.  Deliberately *not* part of the cache
            key - a deadline changes when a run is abandoned, never what
            it computes.
        backend: Execution backend - ``"statevector"`` (default, the
            pre-planner behaviour and what legacy journal lines replay
            as), a forced engine name, or ``"auto"`` for planner
            selection at execution time.
        precision: ``"double"`` (default / legacy), ``"single"``, or
            ``"auto"``.
        name: Optional display name; defaults to ``family_qubits``.
    """

    family: str | None = None
    qubits: int = 0
    seed: int = 0
    qasm: str | None = None
    version: str = "Q-GPU"
    shots: int = 0
    priority: int = 0
    chunk_bits: int | None = None
    fault_plan: str | None = None
    deadline_seconds: float | None = None
    backend: str = "statevector"
    precision: str = "double"
    name: str | None = None

    def __post_init__(self) -> None:
        if (self.family is None) == (self.qasm is None):
            raise ServiceError("job spec needs exactly one of 'family' or 'qasm'")
        if self.family is not None and self.qubits <= 0:
            raise ServiceError(f"job spec qubits must be positive, got {self.qubits}")
        if self.shots < 0:
            raise ServiceError(f"job spec shots must be >= 0, got {self.shots}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ServiceError(
                f"job spec deadline_seconds must be positive, "
                f"got {self.deadline_seconds}"
            )
        if self.backend not in ("auto", "statevector", "stabilizer", "sparse", "mps"):
            raise ServiceError(f"job spec backend {self.backend!r} is unknown")
        if self.precision not in ("auto", "single", "double"):
            raise ServiceError(f"job spec precision {self.precision!r} is unknown")

    def build_circuit(self) -> QuantumCircuit:
        """Materialize the circuit this spec names."""
        if self.qasm is not None:
            from repro.circuits.qasm import from_qasm

            return from_qasm(self.qasm, name=self.name or "qasm_job")
        from repro.circuits.library import get_circuit

        return get_circuit(self.family, self.qubits, seed=self.seed)

    @property
    def display_name(self) -> str:
        if self.name:
            return self.name
        if self.family is not None:
            return f"{self.family}_{self.qubits}"
        return "qasm_job"

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict, omitting defaulted fields for compact journals."""
        out: dict[str, Any] = {}
        for key, default in (
            ("family", None), ("qubits", 0), ("seed", 0), ("qasm", None),
            ("version", "Q-GPU"), ("shots", 0), ("priority", 0),
            ("chunk_bits", None), ("fault_plan", None),
            ("deadline_seconds", None), ("backend", "statevector"),
            ("precision", "double"), ("name", None),
        ):
            value = getattr(self, key)
            if value != default:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobSpec":
        unknown = set(data) - {
            "family", "qubits", "seed", "qasm", "version", "shots",
            "priority", "chunk_bits", "fault_plan", "deadline_seconds",
            "backend", "precision", "name",
        }
        if unknown:
            raise ServiceError(f"unknown job spec fields: {sorted(unknown)}")
        try:
            return cls(**data)
        except TypeError as error:
            raise ServiceError(f"malformed job spec: {error}") from None


def cache_key(fingerprint: str, spec: JobSpec) -> str:
    """Content address of a job's result.

    Two submissions share a key - and therefore a cached result - exactly
    when they simulate the same circuit (by :meth:`QuantumCircuit.fingerprint`)
    under the same version, chunking, shot count and sampling seed.  The
    fault plan participates too: a faulted run under a strict policy is not
    interchangeable with a clean one.

    Backend and precision participate as the *spec-level* strings: a
    complex64 result must never serve a complex128 request, and ``"auto"``
    keys separately from an explicit backend even when the planner would
    resolve it identically (the plan is deterministic per service config,
    but two services may be configured differently - correctness over
    dedup).
    """
    material = "\x1f".join([
        fingerprint,
        spec.version,
        str(spec.chunk_bits),
        str(spec.shots),
        str(spec.seed),
        spec.fault_plan or "",
        spec.backend,
        spec.precision,
    ])
    return hashlib.sha256(material.encode()).hexdigest()


@dataclass
class JobResult:
    """Outcome payload of a finished job (what the cache stores).

    Attributes:
        counts: Sampled measurement counts keyed by the basis-state index
            (stringified for JSON round-tripping).
        state_sha256: SHA-256 of the final amplitude bytes - the identity
            proof that a cache hit equals a fresh run.
        pruned_fraction: Fraction of chunk updates pruning skipped.
        num_qubits: Register width of the simulated circuit.
        chunk_updates_total: Chunk-group updates the unoptimized engine
            would perform for this run.
        chunk_updates_skipped: Updates pruning eliminated.
        transfers: Guarded chunk transfers performed (0 when fault-free).
        retries: Transfer retransmissions the reliability layer performed.
        faults: Injected faults detected across all kinds.
        backend: Backend that executed the job (planner-resolved; legacy
            payloads deserialize as ``"statevector"``).
        precision: Precision the final state was computed at (after any
            norm-guard fallback; legacy payloads deserialize as
            ``"double"``).
        precision_fallback: The single-precision attempt violated the
            norm bound and the result came from the complex128 re-run.

    The simulator-level fields ride along so the service can fold them
    into its metrics export when the job completes
    (:meth:`~repro.service.metrics.MetricsRegistry.absorb_result`);
    pre-existing cached payloads without them deserialize with zeros.
    """

    counts: dict[str, int] = field(default_factory=dict)
    state_sha256: str = ""
    pruned_fraction: float = 0.0
    num_qubits: int = 0
    chunk_updates_total: int = 0
    chunk_updates_skipped: int = 0
    transfers: int = 0
    retries: int = 0
    faults: int = 0
    backend: str = "statevector"
    precision: str = "double"
    precision_fallback: bool = False

    def to_dict(self) -> dict[str, Any]:
        return {
            "counts": dict(sorted(self.counts.items())),
            "state_sha256": self.state_sha256,
            "pruned_fraction": self.pruned_fraction,
            "num_qubits": self.num_qubits,
            "chunk_updates_total": self.chunk_updates_total,
            "chunk_updates_skipped": self.chunk_updates_skipped,
            "transfers": self.transfers,
            "retries": self.retries,
            "faults": self.faults,
            "backend": self.backend,
            "precision": self.precision,
            "precision_fallback": self.precision_fallback,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobResult":
        return cls(
            counts=dict(data.get("counts", {})),
            state_sha256=data.get("state_sha256", ""),
            pruned_fraction=data.get("pruned_fraction", 0.0),
            num_qubits=data.get("num_qubits", 0),
            chunk_updates_total=data.get("chunk_updates_total", 0),
            chunk_updates_skipped=data.get("chunk_updates_skipped", 0),
            transfers=data.get("transfers", 0),
            retries=data.get("retries", 0),
            faults=data.get("faults", 0),
            backend=data.get("backend", "statevector"),
            precision=data.get("precision", "double"),
            precision_fallback=data.get("precision_fallback", False),
        )


@dataclass
class Job:
    """One request flowing through the service.

    Attributes:
        job_id: Stable identifier (``j0001``, ``j0002``, ...).
        seq: Submission sequence number (ties in every policy break on it,
            which is what makes single-worker scheduling deterministic).
        spec: The declarative workload.
        state: Current lifecycle state.
        fingerprint: Circuit content hash (computed at submit).
        footprint_bytes: Estimated resident host bytes while running.
        estimated_seconds: Modelled runtime from the DES cost model
            (None when the cost model cannot price the job).
        attempts: Execution attempts so far (a cache hit counts as one).
        cache_hit: Whether the result came from the cache.
        submitted_at/admitted_at/started_at/finished_at: Clock readings
            (logical ticks in deterministic mode, seconds otherwise).
        result: Outcome payload once SUCCEEDED.
        error: Last failure message, if any.
    """

    job_id: str
    seq: int
    spec: JobSpec
    state: JobState = JobState.PENDING
    fingerprint: str = ""
    footprint_bytes: float = 0.0
    estimated_seconds: float | None = None
    attempts: int = 0
    cache_hit: bool = False
    submitted_at: float = 0.0
    admitted_at: float | None = None
    started_at: float | None = None
    finished_at: float | None = None
    result: JobResult | None = None
    error: str | None = None

    def transition(self, to: JobState, at: float | None = None) -> None:
        """Move to ``to``, enforcing the lifecycle map.

        Raises:
            ServiceError: On an illegal transition.
        """
        if to not in ALLOWED_TRANSITIONS[self.state]:
            raise ServiceError(
                f"job {self.job_id}: illegal transition {self.state.value} -> {to.value}"
            )
        self.state = to
        if to is JobState.ADMITTED:
            self.admitted_at = at
        elif to is JobState.RUNNING:
            self.started_at = at
        elif to in (JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED):
            self.finished_at = at
        elif to is JobState.PENDING:  # retry re-enters the queue
            self.admitted_at = None
            self.started_at = None
            self.finished_at = None

    @property
    def cache_key(self) -> str:
        return cache_key(self.fingerprint, self.spec)

    @property
    def wait_time(self) -> float | None:
        """Queue wait: submission (or re-queue) to execution start."""
        if self.started_at is None:
            return None
        return self.started_at - self.submitted_at

    @property
    def run_time(self) -> float | None:
        """Execution time of the final attempt."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at
