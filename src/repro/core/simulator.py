"""Public facade: the Q-GPU simulator.

:class:`QGpuSimulator` bundles the two halves of the reproduction:

* :meth:`QGpuSimulator.run` - *functional* simulation at tractable widths:
  applies the version's reordering and sweeps each gate over the chunks
  Algorithm 1 cannot prove all-zero, as one strided view of the state.  Returns the exact
  final state plus pruning statistics, and is bit-identical to a dense
  unoptimized simulation (the paper's "pruning and reordering do not affect
  the simulation results").
* :meth:`QGpuSimulator.estimate` - *timed* simulation at any width: runs the
  machine-model executor and returns a :class:`~repro.core.executor.TimedResult`.

A :class:`~repro.reliability.faults.FaultPlan` and a
:class:`~repro.reliability.policy.RecoveryPolicy` act on the functional
engine only: it injects real corruption into chunk transfers (detected by
CRC32 guards and recovered by retrying from the pristine source, so a
recovered run stays bit-identical).  The timed engine prices the
fault-free timeline, as the paper does.  :meth:`QGpuSimulator.run` can
also write periodic checkpoints and resume from one bit-exactly.

Typical use::

    sim = QGpuSimulator()                     # paper's P100 server, Q-GPU
    state = sim.run(circuit).state            # exact amplitudes
    timing = sim.estimate(circuit)            # modelled seconds at any n
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.compression.profile import family_ratio
from repro.core.executor import TimedExecutor, TimedResult
from repro.core.liveness import LiveTracker, live_schedule
from repro.core.reorder import reorder
from repro.core.versions import QGPU, VersionConfig
from repro.errors import (
    AnalysisError,
    CheckpointError,
    FaultInjectionError,
    SimulationError,
)
from repro.hardware.machine import Machine
from repro.hardware.specs import MachineSpec, PAPER_MACHINE
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.reliability.cancellation import CancellationToken
from repro.reliability.checkpoint import load_checkpoint, save_checkpoint
from repro.reliability.faults import FaultKind, FaultPlan
from repro.reliability.integrity import ChunkTransferGuard, check_norm, norm_deviation
from repro.reliability.policy import DEFAULT_POLICY, RecoveryPolicy, ReliabilityReport
from repro.statevector.chunks import ChunkedStateVector, chunk_pair_groups
from repro.statevector.fusion import FusedGate, GateSlab, fuse_slabs, slab_members
from repro.statevector.measure import sample_counts
from repro.statevector.parallel import ParallelChunkEngine, resolve_workers
from repro.statevector.subcube import outside_mask


@dataclass
class FunctionalResult:
    """Outcome of a functional (exact) Q-GPU run.

    Attributes:
        state: Final state - a :class:`ChunkedStateVector` for dense runs,
            or a :class:`~repro.planner.engines.BackendExecution` when the
            planner routed the circuit to another engine (both expose
            ``to_dense()``, a fresh writable copy, where representable;
            :attr:`amplitudes` is the read-only zero-copy view).
        circuit_name: Name of the executed circuit.
        version: Version name used.
        chunk_updates_total: Chunk-group updates the unoptimized engine
            would perform.
        chunk_updates_skipped: Updates skipped because Algorithm 1 proved
            every member chunk zero.
        reliability: Fault/recovery accounting (present on every run; all
            zeros when no plan or guard was active).
        interrupted_at: Gate cursor where ``stop_after`` halted the run
            (None = ran to completion).
        backend: Backend that produced the state.
        precision: Numeric precision the returned state was computed at
            (``"double"`` after a norm-guard fallback, even if single was
            requested; a resumed run keeps its checkpoint's precision).
        norm_deviation: ``|1 - sum |amp|^2|`` measured after a
            single-precision dense run (None on double-only runs).
        precision_fallback: A single-precision run violated the norm
            bound and was deterministically re-run in complex128.
    """

    state: ChunkedStateVector
    circuit_name: str
    version: str
    chunk_updates_total: int = 0
    chunk_updates_skipped: int = 0
    reliability: ReliabilityReport | None = None
    interrupted_at: int | None = None
    backend: str = "statevector"
    precision: str = "double"
    norm_deviation: float | None = None
    precision_fallback: bool = False

    @property
    def amplitudes(self) -> np.ndarray:
        """The final ``2^n`` amplitudes.

        For dense results a read-only view of ``state.backing`` (no copy;
        ``state.to_dense()`` is the writable copy); other backends
        densify through their ``to_dense()``.
        """
        if self.backend != "statevector":
            return self.state.to_dense()
        view = self.state.backing.view()
        view.flags.writeable = False
        return view

    def sample_counts(self, shots: int, seed: int = 0) -> dict[int, int]:
        """Sample ``shots`` end-of-circuit measurements; index -> count."""
        if self.backend != "statevector":
            return self.state.sample_counts(shots, seed=seed)
        amplitudes = self.amplitudes
        if amplitudes.dtype != np.complex128:
            # The sampler checks normalisation at double precision (1e-6);
            # bring the widened single-precision state back onto the unit
            # sphere first.  The double path is left byte-for-byte untouched.
            amplitudes = amplitudes.astype(np.complex128)
            amplitudes /= np.linalg.norm(amplitudes)
        return sample_counts(amplitudes, shots=shots, seed=seed)

    @property
    def pruned_fraction(self) -> float:
        """Fraction of chunk-group updates pruning eliminated."""
        if self.chunk_updates_total == 0:
            return 0.0
        return self.chunk_updates_skipped / self.chunk_updates_total


def _split_at(ops: list[FusedGate], cursor: int) -> list[FusedGate]:
    """``ops`` with the slab straddling source gate ``cursor`` (if any)
    expanded into its member gates, so ``cursor`` is an op boundary."""
    position = 0
    for index, op in enumerate(ops):
        members = slab_members(op)
        if position < cursor < position + len(members):
            return [*ops[:index], *members, *ops[index + 1 :]]
        position += len(members)
    return ops


def circuit_family(circuit: QuantumCircuit) -> str:
    """The benchmark family encoded in a ``family_n`` circuit name."""
    return circuit.name.rsplit("_", 1)[0]


class QGpuSimulator:
    """The Q-GPU quantum circuit simulator (functional + performance model).

    Args:
        machine: Hardware model to time against (default: the paper's P100
            server).
        version: Execution version (default: full Q-GPU).
        chunk_bits: Within-chunk qubits for the functional engine; the timed
            engine uses Aer's default unless overridden.
        fault_plan: Deterministic fault plan injected into the functional
            engine (None = fault-free); :meth:`estimate` ignores it.
        reliability_policy: Detection/recovery policy applied when faults
            or integrity guards are active.
        workers: Chunk-worker threads for the functional engine.  The
            default ``"auto"`` sweeps on the calling thread below
            :data:`~repro.statevector.parallel.AUTO_PARALLEL_THRESHOLD`
            amplitudes and sizes a thread pool to the host above it;
            ``1`` forces serial everywhere; ``N > 1`` forces a pool of
            ``N``, which sweeps with enough live amplitudes are split
            over.
        tracer: Optional :class:`~repro.obs.Tracer`.  Every :meth:`run`
            becomes a nested span tree (run / reorder / per-gate apply /
            transfers / checkpoints) and run statistics land in the
            tracer's counters.  Default: the shared disabled tracer
            (near-zero overhead).
        backend: Execution backend - ``"statevector"`` (default, the
            dense chunked engine and the only pre-planner behaviour), a
            forced ``"stabilizer"`` / ``"sparse"`` / ``"mps"``, or
            ``"auto"`` to let :mod:`repro.planner` pick per circuit.
        precision: ``"double"`` (default, bit-exact complex128),
            ``"single"`` (the dense engine's complex64 fast path, guarded
            by a norm-deviation bound with deterministic complex128
            fallback; it composes with every run mode), or ``"auto"``
            (planner decides).
        single_norm_bound: Norm-deviation ceiling accepted from a
            single-precision run before falling back to double.

    The dense engine always executes the fused op stream of
    :func:`repro.statevector.fusion.fuse_slabs`, in every run mode.
    Cursors (checkpoints, ``stop_after``, norm checks, fault anchors)
    count *source* gates and act at op boundaries.
    """

    def __init__(
        self,
        machine: MachineSpec = PAPER_MACHINE,
        version: VersionConfig = QGPU,
        chunk_bits: int | None = None,
        fault_plan: FaultPlan | None = None,
        reliability_policy: RecoveryPolicy = DEFAULT_POLICY,
        workers: int | str | None = "auto",
        tracer: Tracer | None = None,
        backend: str = "statevector",
        precision: str = "double",
        single_norm_bound: float | None = None,
    ) -> None:
        # Imported lazily everywhere in this module: repro.planner imports
        # repro.core.liveness, whose package __init__ imports this
        # module - a top-level import would cycle.
        from repro.planner import (
            BACKEND_CHOICES,
            DEFAULT_NORM_BOUND,
            PRECISION_CHOICES,
        )

        if chunk_bits is not None and chunk_bits <= 0:
            raise SimulationError(
                f"chunk_bits must be a positive number of within-chunk "
                f"qubits, got {chunk_bits}"
            )
        if backend not in BACKEND_CHOICES:
            raise SimulationError(
                f"unknown backend {backend!r} "
                f"(choose from {sorted(BACKEND_CHOICES)})"
            )
        if precision not in PRECISION_CHOICES:
            raise SimulationError(
                f"unknown precision {precision!r} "
                f"(choose from {sorted(PRECISION_CHOICES)})"
            )
        resolve_workers(workers, 1)  # validate eagerly; resolved per run
        self.machine = Machine(machine)
        self.machine_spec = machine
        self.version = version
        self.chunk_bits = chunk_bits
        self.fault_plan = fault_plan
        self.reliability_policy = reliability_policy
        self.workers = workers
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.backend = backend
        self.precision = precision
        self.single_norm_bound = (
            single_norm_bound if single_norm_bound is not None else DEFAULT_NORM_BOUND
        )

    # -- functional ---------------------------------------------------------

    def run(
        self,
        circuit: QuantumCircuit,
        *,
        checkpoint_every: int | None = None,
        checkpoint_path: str | Path | None = None,
        resume_from: str | Path | None = None,
        stop_after: int | None = None,
        workers: int | str | None = None,
        cancel: CancellationToken | None = None,
    ) -> FunctionalResult:
        """Exact simulation with the version's reordering and pruning.

        Args:
            circuit: Circuit to simulate.
            workers: Per-run override of the constructor's ``workers``
                knob (None = use the constructor's setting).
            cancel: Optional cooperative cancellation token.  The op
                loop polls it before every applied op (which also
                heartbeats the token), so a cancelled run stops within
                one op's work and raises
                :class:`~repro.errors.JobCancelled`.
            checkpoint_every: Write a checkpoint at the first op boundary
                at or past every multiple of N source gates (requires
                ``checkpoint_path``).
            checkpoint_path: File the (single, atomically replaced)
                checkpoint is written to.
            resume_from: Checkpoint file to resume from; the prefix of the
                circuit up to the stored cursor is replayed through the
                pruning trackers but not re-applied, so the continued run
                is bit-identical to an uninterrupted one.  A cursor inside
                a slab resumes with that slab's remaining members as
                single gates.  The run continues at the precision the
                checkpoint records.
            stop_after: Halt at the first op boundary at or past this many
                source gates (simulates a crash for checkpoint testing;
                the result's ``interrupted_at`` records that cursor).
                ``0`` applies nothing; a value ``>= len(circuit)`` is a
                complete run (``interrupted_at`` stays None).

        Raises:
            SimulationError: For widths beyond the functional limit or
                inconsistent options.
            CheckpointError: Unusable or mismatched resume checkpoint.
            IntegrityError: A guard detected corruption and the policy
                forbids recovery.
            FaultInjectionError: An injected fault exhausted its retries.
            AnalysisError: ``backend="auto"`` and no backend can execute
                this circuit on this machine.
        """
        tracer = self.tracer
        backend, precision = self._route(circuit, tracer)
        with tracer.span(
            "run", circuit=circuit.name, version=self.version.name, backend=backend
        ):
            return self._execute(
                circuit,
                tracer,
                backend,
                precision,
                checkpoint_every=checkpoint_every,
                checkpoint_path=checkpoint_path,
                resume_from=resume_from,
                stop_after=stop_after,
                workers=workers,
                cancel=cancel,
            )

    # -- planner routing ----------------------------------------------------

    def resolve_backend(self, circuit: QuantumCircuit) -> tuple[str, str]:
        """The (backend, precision) this simulator would run ``circuit`` on.

        Deterministic and side-effect free; ``"auto"`` knobs are resolved
        through :func:`repro.planner.plan`.
        """
        if self.backend != "auto" and self.precision != "auto":
            return self.backend, self.precision
        chosen = self.plan(circuit)
        return chosen.backend, chosen.precision

    def plan(self, circuit: QuantumCircuit):
        """The full :class:`~repro.planner.BackendPlan` for ``circuit``."""
        from repro.planner import PlannerConfig, plan as plan_circuit

        config = PlannerConfig(
            machine=self.machine_spec,
            backend=self.backend,
            precision=self.precision,
        )
        return plan_circuit(circuit, config)

    def _route(self, circuit: QuantumCircuit, tracer: Tracer) -> tuple[str, str]:
        """Resolve the run's backend/precision, tracing auto decisions."""
        if self.backend != "auto" and self.precision != "auto":
            return self.backend, self.precision
        if tracer.enabled:
            with tracer.span("plan", stage="plan", circuit=circuit.name):
                chosen = self.plan(circuit)
        else:
            chosen = self.plan(circuit)
        if tracer is not NULL_TRACER:
            tracer.counters.count(f"planner.selected.{chosen.backend}")
        return chosen.backend, chosen.precision

    def _execute(
        self,
        circuit: QuantumCircuit,
        tracer: Tracer,
        backend: str,
        precision: str,
        *,
        checkpoint_every: int | None,
        checkpoint_path: str | Path | None,
        resume_from: str | Path | None,
        stop_after: int | None,
        workers: int | str | None,
        cancel: CancellationToken | None,
    ) -> FunctionalResult:
        if backend != "statevector":
            return self._run_nondense(
                circuit,
                tracer,
                backend,
                checkpoint_every=checkpoint_every,
                resume_from=resume_from,
                stop_after=stop_after,
                cancel=cancel,
            )
        from repro.planner import resolve_dtype

        run = partial(
            self._run,
            circuit,
            tracer,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            stop_after=stop_after,
            workers=workers,
            cancel=cancel,
        )
        result = run(resume_from=resume_from, dtype=resolve_dtype(precision))
        if result.precision != "single" or result.interrupted_at is not None:
            # A partial state is not norm-1; the guard covers completed
            # complex64 runs only.
            return result
        deviation = norm_deviation(result.state.backing)
        result.norm_deviation = deviation
        if deviation <= self.single_norm_bound:
            return result
        # Rounding exceeded the bound: deterministic full re-run at double
        # precision (no partial reuse - reproducibility beats salvaging a
        # degraded state).
        if tracer is not NULL_TRACER:
            tracer.counters.count("planner.fallbacks")
        retried = run(resume_from=None, dtype=np.complex128)
        retried.precision_fallback = True
        retried.norm_deviation = deviation
        return retried

    def _run_nondense(
        self,
        circuit: QuantumCircuit,
        tracer: Tracer,
        backend: str,
        *,
        checkpoint_every: int | None,
        resume_from: str | Path | None,
        stop_after: int | None,
        cancel: CancellationToken | None,
    ) -> FunctionalResult:
        """Execute on the tableau / hash-map / MPS engine."""
        from repro.planner import run_backend

        if checkpoint_every is not None or resume_from is not None:
            raise SimulationError(
                f"backend {backend!r} does not support checkpoint/resume; "
                "use the statevector backend"
            )
        if stop_after is not None:
            raise SimulationError(
                f"backend {backend!r} does not support partial runs "
                "(stop_after)"
            )
        if self.fault_plan is not None and self.fault_plan.active:
            raise SimulationError(
                f"backend {backend!r} does not support fault injection; "
                "use the statevector backend"
            )
        if cancel is not None:
            cancel.poll()
        if tracer.enabled:
            with tracer.span(
                f"backend:{backend}", stage="compute", circuit=circuit.name
            ):
                execution = run_backend(circuit, backend)
        else:
            execution = run_backend(circuit, backend)
        if cancel is not None:
            cancel.poll()
        if tracer is not NULL_TRACER:
            tracer.counters.count("runs.completed")
        return FunctionalResult(
            state=execution,
            circuit_name=circuit.name,
            version=self.version.name,
            reliability=ReliabilityReport(),
            backend=backend,
            precision="double",
        )

    def _run(
        self,
        circuit: QuantumCircuit,
        tracer: Tracer,
        *,
        checkpoint_every: int | None,
        checkpoint_path: str | Path | None,
        resume_from: str | Path | None,
        stop_after: int | None,
        workers: int | str | None,
        cancel: CancellationToken | None,
        dtype,
    ) -> FunctionalResult:
        from repro.planner import precision_of

        n = circuit.num_qubits
        chunk_bits = self.chunk_bits if self.chunk_bits is not None else max(1, min(10, n - 2))
        if chunk_bits > n:
            raise SimulationError(f"chunk_bits {chunk_bits} exceeds width {n}")
        if checkpoint_every is not None:
            if checkpoint_every <= 0:
                raise SimulationError(
                    f"checkpoint_every must be positive, got {checkpoint_every}"
                )
            if checkpoint_path is None:
                raise SimulationError("checkpoint_every requires checkpoint_path")

        policy = self.reliability_policy
        report = ReliabilityReport()
        with tracer.span("reorder", stage="transpile", strategy=self.version.reorder_strategy):
            ordered = reorder(circuit, self.version.reorder_strategy)

        start_cursor = 0
        if resume_from is not None:
            with tracer.span("resume", stage="checkpoint"):
                checkpoint = load_checkpoint(resume_from)
            if checkpoint.num_qubits != n:
                raise CheckpointError(
                    f"checkpoint width {checkpoint.num_qubits} != circuit width {n}"
                )
            if checkpoint.circuit_name and checkpoint.circuit_name != circuit.name:
                raise CheckpointError(
                    f"checkpoint is for circuit {checkpoint.circuit_name!r}, "
                    f"not {circuit.name!r}"
                )
            if checkpoint.version_name and checkpoint.version_name != self.version.name:
                raise CheckpointError(
                    f"checkpoint is for version {checkpoint.version_name!r}, "
                    f"not {self.version.name!r}"
                )
            if checkpoint.gate_cursor > len(ordered):
                raise CheckpointError(
                    f"checkpoint cursor {checkpoint.gate_cursor} exceeds "
                    f"circuit length {len(ordered)}"
                )
            # Cross-check the stored involvement mask against a replay of
            # the circuit prefix: a mismatch means the checkpoint belongs
            # to a different circuit/cursor than it claims.
            replayed = LiveTracker(n, self.version.pruning)
            for _ in live_schedule(ordered[: checkpoint.gate_cursor], replayed):
                pass
            if checkpoint.involvement_mask not in (0, replayed.involvement):
                raise CheckpointError(
                    "checkpoint involvement mask does not match the replayed "
                    "circuit prefix - wrong circuit or corrupted metadata"
                )
            state = checkpoint.state
            start_cursor = checkpoint.gate_cursor
            report.resumed_from_gate = start_cursor
        else:
            state = self._allocate_state(n, chunk_bits, report, dtype)
        if stop_after is not None:
            # The run halts at the first op boundary at or past this
            # cursor; one that would stop at or past its last gate is
            # simply a complete run.
            stop_after = max(stop_after, start_cursor)
            if stop_after >= len(ordered):
                stop_after = None

        guard: ChunkTransferGuard | None = None
        if self.fault_plan is not None and self.fault_plan.active:
            guard = ChunkTransferGuard(
                self.fault_plan,
                policy,
                compression=self.version.compression,
                report=report,
                tracer=tracer,
            )

        requested = workers if workers is not None else self.workers
        resolved = resolve_workers(requested, 1 << n)
        engine = ParallelChunkEngine(resolved, tracer) if resolved > 1 else None

        with tracer.span("fuse", stage="fuse", gates=len(ordered)):
            ops = fuse_slabs(list(ordered), chunk_bits=state.chunk_bits)
        if tracer is not NULL_TRACER:
            slabs = [op for op in ops if isinstance(op, GateSlab)]
            if slabs:
                tracer.counters.count("fusion.slabs", len(slabs))
                tracer.counters.count(
                    "fusion.gates_fused", sum(len(s.gates) for s in slabs)
                )
        if start_cursor:
            ops = _split_at(ops, start_cursor)

        # complex64 rounding alone moves the norm by up to the run's
        # single-precision bound.
        norm_tolerance = policy.norm_tolerance
        if state.dtype == np.complex64:
            norm_tolerance = max(norm_tolerance, self.single_norm_bound)
        tracker = LiveTracker(n, self.version.pruning)
        total_updates = 0
        skipped_updates = 0
        interrupted_at: int | None = None

        if cancel is not None:
            cancel.poll()
        try:
            # ``first`` is the source index of the op's first member gate:
            # every cursor counts source gates and acts at the first op
            # boundary at or past its value.
            for op, first, _ in live_schedule(ops, tracker):
                if stop_after is not None and first >= stop_after:
                    interrupted_at = first
                    break
                if cancel is not None:
                    cancel.poll()
                position = first + len(slab_members(op))
                live = tracker.subcube(state.chunk_bits)
                outside = outside_mask(op.qubits, state.chunk_bits)
                groups_total, groups_live = live.group_counts(outside)
                total_updates += groups_total
                skipped_updates += groups_total - groups_live
                if first < start_cursor:
                    continue
                with tracer.span(
                    f"apply:{op.name}", stage="compute", gate=first, groups=groups_live
                ):
                    if guard is not None:
                        guard.begin_gate(first)
                        relaxed = live.relaxed(outside)
                        groups = [
                            group
                            for group in chunk_pair_groups(
                                n, state.chunk_bits, op.qubits
                            )
                            if group[0] in relaxed
                        ]
                        guard.stream(state, groups, "h2d")
                    state.sweep(op, live, engine, tracer)
                    if guard is not None:
                        guard.stream(state, groups, "d2h")
                every = policy.norm_check_every
                if every and position // every > first // every:
                    with tracer.span(
                        "norm_check", stage="integrity", gate=position - 1
                    ):
                        check_norm(
                            state.backing,
                            norm_tolerance,
                            where=f"{circuit.name} after gate {position - 1}",
                        )
                if (
                    checkpoint_every is not None
                    and position // checkpoint_every > first // checkpoint_every
                    and position < len(ordered)
                ):
                    with tracer.span("checkpoint", stage="checkpoint", cursor=position):
                        save_checkpoint(
                            checkpoint_path,
                            state,
                            gate_cursor=position,
                            involvement_mask=tracker.involvement,
                            circuit_name=circuit.name,
                            version_name=self.version.name,
                        )
                    report.checkpoints_written += 1
        finally:
            if engine is not None:
                engine.close()

        if tracer is not NULL_TRACER:
            counters = tracer.counters
            counters.count("chunk_updates.total", total_updates)
            counters.count("chunk_updates.skipped", skipped_updates)
            counters.count("runs.completed" if interrupted_at is None else "runs.interrupted")
            if report.checkpoints_written:
                counters.count("checkpoints.written", report.checkpoints_written)

        return FunctionalResult(
            state=state,
            circuit_name=circuit.name,
            version=self.version.name,
            chunk_updates_total=total_updates,
            chunk_updates_skipped=skipped_updates,
            reliability=report,
            interrupted_at=interrupted_at,
            precision=precision_of(state.dtype),
        )

    def _allocate_state(
        self,
        n: int,
        chunk_bits: int,
        report: ReliabilityReport,
        dtype=np.complex128,
    ) -> ChunkedStateVector:
        """Allocate the chunked state, degrading chunk size on injected OOM."""
        plan = self.fault_plan
        policy = self.reliability_policy
        bits = chunk_bits
        for attempt in range(policy.max_alloc_attempts):
            if plan is not None and plan.oom_fault(attempt):
                report.record_fault(FaultKind.OOM.value)
                if policy.halve_chunk_on_oom and bits > 1:
                    bits -= 1  # halve the chunk size and retry
                    report.degraded_chunk_bits = bits
                continue
            return ChunkedStateVector(n, bits, dtype=dtype)
        raise FaultInjectionError(
            f"state allocation failed {policy.max_alloc_attempts} times "
            f"(last attempted chunk_bits={bits})"
        )

    # -- timed ---------------------------------------------------------------

    def estimate_cost(
        self, circuit: QuantumCircuit, compression_ratio: float = 1.0
    ) -> float:
        """Cheap modelled-seconds estimate for scheduling decisions.

        Unlike :meth:`estimate`, this never measures a compression profile
        (which runs real functional simulations): the caller supplies the
        ratio, defaulting to raw storage.  The shortest-estimated-job-first
        scheduler in :mod:`repro.service` prices every queued job with this
        hook, so it must stay closed-form fast at any width.

        Circuits this simulator routes to the dense chunked engine are
        priced by the timed DES model; circuits routed elsewhere (a
        forced or auto-selected tableau / hash-map backend, or a forced
        MPS one)
        delegate to the planner's calibrated per-backend estimator - the
        DES model knows nothing about those engines and silently pricing
        them as dense is exactly the wrong answer this used to give.

        Raises:
            SimulationError: If the state fits no engine on this machine.
            AnalysisError: ``backend="auto"`` and nothing can execute the
                circuit.
        """
        if self.backend != "auto" and self.precision != "auto":
            backend, chosen = self.backend, None
        else:
            chosen = self.plan(circuit)
            backend = chosen.backend
        if backend == "statevector":
            return self._estimate_dense(circuit, compression_ratio).total_seconds
        if chosen is not None:
            cost = chosen.cost_for(backend)
        else:
            from repro.planner import analyze_circuit, backend_cost

            features = analyze_circuit(circuit)
            cost = backend_cost(features, backend, self.machine_spec, "double")
        if not cost.feasible:
            raise AnalysisError(
                f"backend {backend!r} cannot run {circuit.name}: {cost.reason}"
            )
        return cost.seconds

    def estimate(
        self,
        circuit: QuantumCircuit,
        compression_ratio: float | None = None,
    ) -> TimedResult:
        """Model the wall-clock execution of ``circuit`` on this machine.

        The timeline is fault-free: an attached fault plan acts on
        :meth:`run` only.

        Args:
            circuit: Circuit at any width the host can hold.
            compression_ratio: Override the measured per-family GFC ratio
                (useful for sensitivity studies); by default the ratio is
                measured on real amplitudes at a tractable width for this
                circuit's family.

        Raises:
            AnalysisError: The circuit routes to a non-dense backend -
                the DES timeline models the dense chunked engine only, so
                a timed result here would be a wrong-engine answer.  Use
                :meth:`estimate_cost` or :func:`repro.planner.plan` for
                per-backend pricing.
        """
        backend, _precision = self.resolve_backend(circuit)
        if backend != "statevector":
            raise AnalysisError(
                f"the timed DES model prices the dense chunked engine, but "
                f"{circuit.name} routes to the {backend!r} backend; use "
                f"estimate_cost() or repro.planner.plan() instead"
            )
        return self._estimate_dense(circuit, compression_ratio)

    def _estimate_dense(
        self, circuit: QuantumCircuit, compression_ratio: float | None
    ) -> TimedResult:
        """:meth:`estimate` once the circuit is known to route dense."""
        if compression_ratio is None:
            compression_ratio = (
                family_ratio(circuit_family(circuit))
                if self.version.compression
                else 1.0
            )
        executor = TimedExecutor(
            self.machine,
            **({"chunk_bits": self.chunk_bits} if self.chunk_bits is not None else {}),
        )
        return executor.execute(circuit, self.version, compression_ratio)
