"""Command-line interface.

::

    python -m repro simulate  --family bv --qubits 12 --shots 100
    python -m repro simulate  --qasm circuit.qasm --shots 1000
    python -m repro estimate  --family qft --qubits 34 --machine p100
    python -m repro experiment fig12 tab2
    python -m repro profile   --family qaoa
    python -m repro transpile --family gs --qubits 8

Subcommands:

* ``simulate`` - exact functional simulation with the Q-GPU pipeline
  (reordering + chunking + pruning), printing sampled counts;
* ``estimate`` - the performance model: modelled times on a chosen
  machine for the six paper versions, the two pruning extensions and the
  CPU-OpenMP comparator;
* ``experiment`` - run registered paper reproductions by id;
* ``profile`` - measure a family's GFC compression profile;
* ``transpile`` - decompose/merge/cancel a circuit and print QASM
  (``--fingerprint`` prints the content hash instead);
* ``reliability`` - fault-injection demo: verify that recovery keeps the
  result bit-identical and that checkpoint/resume works mid-circuit;
* ``serve-batch`` - run a JSON manifest of jobs through the batch service
  (scheduling policy, worker pool, result cache, watchdog supervision and
  crash recovery);
* ``submit`` / ``status`` / ``cancel`` / ``compact`` - manage jobs in a
  JSONL journal across processes (see ``docs/service.md``).

``simulate`` and ``submit`` take ``--backend`` (``auto`` engages the
circuit-aware backend planner, see ``docs/planner.md``) and
``--precision`` (``single``/``auto`` run the dense engine in complex64
with a norm-guarded complex128 fallback); ``plan`` prints the planner's
per-backend cost table, or every backend's rejection when ``auto`` has
nothing it can vouch for.  ``simulate`` also understands ``--fault-plan``,
``--checkpoint-every``,
``--checkpoint`` and ``--resume`` (see ``docs/reliability.md``), and
``--trace FILE`` / ``--metrics FILE`` for observability exports; ``trace
summary|analyze|critical-path|drift FILE`` analyse any exported trace
(per-stage breakdown, rollups + bottlenecks, critical-path attribution
with overlap efficiency, and model-vs-measured drift - see
``docs/observability.md``).  The global ``--log-level`` / ``--log-format``
flags control structured logging.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.circuits.library import FAMILIES, get_circuit
from repro.circuits.passes import transpile
from repro.circuits.qasm import from_qasm, to_qasm
from repro.compression.profile import measure_profile
from repro.core.simulator import QGpuSimulator
from repro.core.versions import (
    ALL_VERSIONS,
    QGPU_BASIS_TRACKING,
    QGPU_DIAGONAL_AWARE,
    VERSIONS_BY_NAME,
)
from repro.errors import ReproError
from repro.hardware.specs import MACHINES
from repro.obs.log import configure_logging, get_logger

_logger = get_logger("cli")


def _load_circuit(args: argparse.Namespace):
    if getattr(args, "qasm", None):
        return from_qasm(Path(args.qasm).read_text(), name=Path(args.qasm).stem)
    return get_circuit(args.family, args.qubits, seed=args.seed)


def _add_circuit_options(parser: argparse.ArgumentParser, qasm: bool = True) -> None:
    parser.add_argument("--family",
                        choices=sorted(FAMILIES) + ["grqc", "ghz", "w", "grover"],
                        help="circuit family (paper Table I + extensions)")
    parser.add_argument("--qubits", type=int, default=12, help="register width")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    if qasm:
        parser.add_argument("--qasm", help="OpenQASM 2.0 file instead of a family")


def _fault_plan(args: argparse.Namespace):
    from repro.reliability import FaultPlan

    spec = getattr(args, "fault_plan", None)
    return FaultPlan.from_spec(spec) if spec else None


def _workers_arg(value: str) -> int | str:
    """Parse a chunk-workers knob: 'auto' or a positive integer."""
    if value == "auto":
        return value
    try:
        workers = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"workers must be 'auto' or a positive integer, got {value!r}"
        ) from None
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"workers must be 'auto' or a positive integer, got {value!r}"
        )
    return workers


def _build_tracer(args: argparse.Namespace):
    """Build a Tracer when ``--trace`` or ``--metrics`` asked for one, else None."""
    if not (getattr(args, "trace", None) or getattr(args, "metrics", None)):
        return None
    from repro.obs import LogicalClock, Tracer, WallClock

    logical = getattr(args, "trace_clock", "wall") == "logical"
    return Tracer(clock=LogicalClock() if logical else WallClock())


def _write_observability(tracer, args: argparse.Namespace) -> None:
    """Write the trace and/or metrics files the flags requested."""
    if tracer is None:
        return
    from repro.obs import metrics_json, write_trace

    if getattr(args, "trace", None):
        written = write_trace(tracer, args.trace)
        _logger.info("trace written to %s (%d bytes)", args.trace, written,
                     extra={"path": args.trace, "bytes": written})
    if getattr(args, "metrics", None):
        Path(args.metrics).write_text(metrics_json(tracer))
        _logger.info("metrics written to %s", args.metrics,
                     extra={"path": args.metrics})


def _cmd_simulate(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args)
    version = VERSIONS_BY_NAME[args.version]
    tracer = _build_tracer(args)
    simulator = QGpuSimulator(
        version=version, fault_plan=_fault_plan(args), workers=args.workers,
        tracer=tracer, backend=args.backend, precision=args.precision,
    )
    result = simulator.run(
        circuit,
        checkpoint_every=args.checkpoint_every,
        checkpoint_path=args.checkpoint,
        resume_from=args.resume,
    )
    print(f"{circuit.name}: {len(circuit)} gates, version {version.name}")
    if args.backend != "statevector" or args.precision != "double":
        line = f"backend: {result.backend}, precision: {result.precision}"
        if result.precision_fallback:
            line += (f" (fell back from single: norm deviation "
                     f"{result.norm_deviation:.3g})")
        print(line)
    if result.backend == "statevector":
        print(f"pruned chunk updates: {result.pruned_fraction:.1%}")
        report = result.reliability
        if report is not None and (report.total_faults
                                   or report.checkpoints_written
                                   or report.resumed_from_gate is not None):
            print(report.summary())
    counts = result.sample_counts(args.shots, seed=args.seed)
    width = circuit.num_qubits
    for outcome, count in sorted(counts.items(), key=lambda kv: -kv[1])[: args.top]:
        print(f"  |{outcome:0{width}b}>  {count}")
    _write_observability(tracer, args)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.comparisons.models import estimate_cpu_openmp

    circuit = _load_circuit(args)
    machine = MACHINES[args.machine]
    timings = [
        QGpuSimulator(machine=machine, version=version).estimate(circuit)
        for version in (*ALL_VERSIONS, QGPU_DIAGONAL_AWARE, QGPU_BASIS_TRACKING)
    ]
    timings.append(estimate_cpu_openmp(circuit, machine=machine))
    print(f"{circuit.name} on {machine.name}")
    print(f"{'version':<12} {'seconds':>12} {'transfer_s':>12} {'GB moved':>10}")
    for timing in timings:
        moved = (timing.bytes_h2d + timing.bytes_d2h) / 1e9
        print(f"{timing.version:<12} {timing.total_seconds:>12.2f} "
              f"{timing.transfer_seconds:>12.2f} {moved:>10.1f}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments import all_experiment_ids, run_experiment

    ids = args.ids or all_experiment_ids()
    for experiment_id in ids:
        print(run_experiment(experiment_id).render())
        print()
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    profile = measure_profile(args.family, args.qubits, seed=args.seed)
    print(f"{args.family} @ {args.qubits} qubits")
    print(f"  mean GFC ratio : {profile.mean_ratio:.3f}")
    print(f"  final ratio    : {profile.final_ratio:.3f}")
    print(f"  snapshots      : {len(profile.snapshot_ratios)}")
    return 0


def _cmd_transpile(args: argparse.Namespace) -> int:
    circuit = _load_circuit(args)
    tracer = _build_tracer(args)
    lowered = transpile(circuit, tracer=tracer)
    _write_observability(tracer, args)
    if args.fingerprint:
        print(f"{circuit.fingerprint()}  {circuit.name}")
        print(f"{lowered.fingerprint()}  {lowered.name} (transpiled)")
        return 0
    print(f"// {circuit.name}: {len(circuit)} gates -> {len(lowered)} gates")
    print(to_qasm(lowered), end="")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.planner import PlannerConfig, plan as plan_backend

    circuit = _load_circuit(args)
    config = PlannerConfig(
        machine=MACHINES[args.machine],
        backend=args.backend,
        precision=args.precision,
    )
    backend_plan = plan_backend(circuit, config)
    print(backend_plan.render())
    print("  modelled times of the dense engine's versions: repro estimate")
    return 0


#: ``trace`` subactions that read an existing trace file rather than
#: exporting a new one.
TRACE_ANALYSIS_ACTIONS = ("summary", "validate", "analyze", "critical-path", "drift")


def _cmd_trace(args: argparse.Namespace) -> int:
    if args.action == "summary":
        return _trace_summary(args)
    if args.action == "validate":
        return _trace_validate(args)
    if args.action == "analyze":
        return _trace_analyze(args)
    if args.action == "critical-path":
        return _trace_critical_path(args)
    if args.action == "drift":
        return _trace_drift(args)
    if getattr(args, "devices", None):
        return _trace_export_fleet(args)

    from repro.core.schedule import GateStreamPlan, stream_makespan
    from repro.core.simulator import QGpuSimulator
    from repro.hardware.pipeline import StageTimes
    from repro.hardware.trace import write_chrome_trace

    circuit = _load_circuit(args)
    version = VERSIONS_BY_NAME[args.version]
    timing = QGpuSimulator(
        machine=MACHINES[args.machine], version=version
    ).estimate(circuit)
    # Rebuild the streaming schedule of the first few streamed gates as an
    # explicit event timeline for the trace viewer.
    plans = []
    for record in timing.per_gate:
        if record.bytes_h2d <= 0 or record.name == "<readout>":
            continue
        batches = 4
        plans.append(
            GateStreamPlan(
                f"{record.index}:{record.name}",
                batches,
                StageTimes(
                    record.bytes_h2d / batches / MACHINES[args.machine].link.bandwidth_per_direction,
                    record.gpu_seconds / batches,
                    record.bytes_d2h / batches / MACHINES[args.machine].link.bandwidth_per_direction,
                ),
            )
        )
        if len(plans) >= args.gates:
            break
    if not plans:
        print("nothing streams for this configuration; no trace written")
        return 0
    result = stream_makespan(plans, overlap=version.overlap)
    written = write_chrome_trace(result, args.output,
                                 process_name=f"{circuit.name}/{version.name}")
    print(f"wrote {written} bytes to {args.output} "
          f"(open in chrome://tracing or Perfetto)")
    return 0


def _trace_export_fleet(args: argparse.Namespace) -> int:
    """``trace export --devices N``: chunk-granular multi-device DES trace."""
    from repro.core.detailed import DetailedExecutor
    from repro.hardware.machine import Machine
    from repro.hardware.trace import write_chrome_trace

    circuit = _load_circuit(args)
    version = VERSIONS_BY_NAME[args.version]
    executor = DetailedExecutor(
        Machine(MACHINES[args.machine]),
        chunk_bits=args.chunk_bits,
        capacity_bytes=int(args.capacity_mib * (1 << 20)),
        devices=args.devices,
    )
    run = executor.execute(circuit, version)
    written = write_chrome_trace(
        run.timeline, args.output,
        process_name=f"{circuit.name}/{version.name}/x{run.devices}",
    )
    print(f"wrote {written} bytes to {args.output} "
          f"({run.devices} device(s), makespan {run.makespan:.6g} s, "
          f"{run.bytes_h2d + run.bytes_d2h:.6g} bytes transferred)")
    return 0


def _load_trace_spans(path: str):
    """Read a trace file into (events, spans, unit-label)."""
    from repro.obs import load_trace_events, spans_from_events, trace_clock_deterministic

    events = load_trace_events(path)
    spans = spans_from_events(events)
    unit = "ticks" if trace_clock_deterministic(events) else "us"
    return events, spans, unit


def _trace_summary(args: argparse.Namespace) -> int:
    from repro.obs import render_summary, summarize

    _, spans, unit = _load_trace_spans(args.file)
    if not spans:
        print(f"warning: {args.file} contains no spans; empty breakdown",
              file=sys.stderr)
    print(render_summary(summarize(spans), unit=unit))
    return 0


def _trace_validate(args: argparse.Namespace) -> int:
    from repro.obs import validate_trace_file

    checked = validate_trace_file(args.file)
    print(f"{args.file}: {checked} span(s) well-formed")
    return 0


def _trace_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.obs import analyze, render_analysis

    events, spans, unit = _load_trace_spans(args.file)
    analysis = analyze(spans, top=args.top)
    print(render_analysis(analysis, unit=unit))
    payload = analysis.to_dict()
    if getattr(args, "roofline", False):
        from repro.obs import (
            kernel_rooflines,
            render_kernel_rooflines,
            rooflines_payload,
            trace_counters_snapshot,
        )

        machine = MACHINES[args.machine]
        # The functional engines run on the host, and the DES model costs
        # the CPU version with the same number - so measured kernels are
        # placed against the machine's CPU effective bandwidth.
        bandwidth = machine.cpu.effective_bandwidth
        rows = kernel_rooflines(trace_counters_snapshot(events), bandwidth)
        print()
        print(f"kernel roofline vs {machine.name} "
              f"(CPU bound {bandwidth / 1e9:.1f} GB/s)")
        print(render_kernel_rooflines(rows))
        payload["roofline"] = {
            "machine": machine.name,
            "bound_bandwidth": bandwidth,
            "kernels": rooflines_payload(rows),
        }
    if getattr(args, "fleet", False):
        from repro.obs import fleet_analysis, render_fleet

        fleet = fleet_analysis(spans)
        print()
        print(render_fleet(fleet, unit=unit))
        payload["fleet"] = fleet.to_dict()
    if args.json:
        Path(args.json).write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n"
        )
        print(f"analysis JSON written to {args.json}")
    return 0


def _trace_critical_path(args: argparse.Namespace) -> int:
    import json

    from repro.obs import critical_path, overlap_stats, render_critical_path

    _, spans, unit = _load_trace_spans(args.file)
    if not spans:
        print(f"warning: {args.file} contains no spans; empty critical path",
              file=sys.stderr)
        print("critical path: empty trace")
        return 0
    path = critical_path(spans)
    overlap = overlap_stats(spans)
    print(render_critical_path(path, unit=unit, limit=args.top))
    if overlap.efficiency is None:
        print("overlap efficiency: n/a (no transfer spans in trace)")
    else:
        print(f"overlap efficiency: {overlap.efficiency:.3f} "
              f"(hidden {overlap.hidden:.6g} of {overlap.transfer:.6g} "
              f"{unit} transfer)")
    if args.json:
        payload = {
            "critical_path": path.to_dict(),
            "overlap": {
                "transfer": overlap.transfer,
                "hidden": overlap.hidden,
                "exposed": overlap.exposed,
                "efficiency": overlap.efficiency,
            },
        }
        Path(args.json).write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n"
        )
        print(f"critical-path JSON written to {args.json}")
    return 0


def _trace_drift(args: argparse.Namespace) -> int:
    import json

    from repro.obs import drift_report, measured_breakdown, predicted_breakdown

    circuit = _load_circuit(args)
    version = VERSIONS_BY_NAME[args.version]
    machine = MACHINES[args.machine]
    _, spans, _ = _load_trace_spans(args.file)
    timing = QGpuSimulator(machine=machine, version=version).estimate(circuit)
    report = drift_report(
        predicted_breakdown(timing, machine),
        measured_breakdown(spans),
        tolerance=args.tolerance,
        context={
            "circuit": circuit.name,
            "version": version.name,
            "machine": machine.name,
            "trace": str(args.file),
        },
    )
    print(report.render())
    if args.report:
        Path(args.report).write_text(
            json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n"
        )
        print(f"drift report written to {args.report}")
    return 0 if report.passed else 1


def _cmd_reliability(args: argparse.Namespace) -> int:
    import tempfile

    import numpy as np

    from repro.reliability import FaultPlan

    circuit = _load_circuit(args)
    version = VERSIONS_BY_NAME[args.version]
    plan = _fault_plan(args) or FaultPlan.from_spec(
        "seed=7,transfer=0.05,codec=0.05,oom=1"
    )
    print(f"{circuit.name}: {len(circuit)} gates, version {version.name}")
    print(f"fault plan: {plan.describe()}")

    # 1. Recovery keeps the functional result bit-identical.
    clean = QGpuSimulator(version=version).run(circuit)
    faulty = QGpuSimulator(version=version, fault_plan=plan).run(circuit)
    identical = bool(
        np.array_equal(
            clean.amplitudes.view(np.uint64), faulty.amplitudes.view(np.uint64)
        )
    )
    print("\n-- fault injection + recovery --")
    print(faulty.reliability.summary())
    print(f"final state bit-identical to fault-free run: {identical}")

    # 2. A killed run resumes from its checkpoint bit-identically.
    kill_at = args.kill_at if args.kill_at is not None else max(2, len(circuit) // 2)
    every = args.checkpoint_every or max(1, kill_at // 2)
    print("\n-- checkpoint / resume --")
    with tempfile.TemporaryDirectory() as tempdir:
        path = Path(tempdir) / "run.qgck"
        sim = QGpuSimulator(version=version, fault_plan=plan)
        interrupted = sim.run(
            circuit, checkpoint_every=every, checkpoint_path=path, stop_after=kill_at
        )
        print(
            f"killed after gate {interrupted.interrupted_at} "
            f"({interrupted.reliability.checkpoints_written} checkpoint(s) on disk)"
        )
        resumed = sim.run(circuit, resume_from=path)
        resumed_ok = bool(
            np.array_equal(
                clean.amplitudes.view(np.uint64), resumed.amplitudes.view(np.uint64)
            )
        )
        print(f"resumed from gate {resumed.reliability.resumed_from_gate}; "
              f"final state bit-identical: {resumed_ok}")
    return 0 if identical and resumed_ok else 1


def _cmd_serve_batch(args: argparse.Namespace) -> int:
    from repro.reliability.policy import (
        DEFAULT_POLICY,
        STRICT_POLICY,
        RecoveryPolicy,
    )
    from repro.service import (
        DEFAULT_CACHE_BUDGET,
        BatchService,
        JobStore,
        SupervisionConfig,
        load_manifest,
    )

    recovery = DEFAULT_POLICY
    if args.max_attempts is not None:
        recovery = RecoveryPolicy(max_transfer_attempts=args.max_attempts)
    sim_recovery = (
        STRICT_POLICY if args.sim_recovery == "strict" else DEFAULT_POLICY
    )
    supervision = SupervisionConfig(
        enabled=not args.no_supervision,
        stall_timeout_seconds=args.stall_timeout,
    )
    journal = (
        JobStore(args.journal, fsync=args.journal_fsync) if args.journal else None
    )
    tracer = None
    if args.trace:
        from repro.obs import LogicalClock, Tracer, WallClock

        # Single-worker service runs are deterministic end to end, so give
        # them the logical clock and the trace bytes reproduce exactly.
        tracer = Tracer(clock=LogicalClock() if args.workers == 1 else WallClock())
    service = BatchService(
        machine=MACHINES[args.machine],
        policy=args.policy,
        workers=args.workers,
        cache_budget_bytes=(
            DEFAULT_CACHE_BUDGET if args.cache_mb is None
            else int(args.cache_mb * 1e6)
        ),
        recovery=recovery,
        sim_recovery=sim_recovery,
        sim_workers=args.sim_workers,
        seed=args.seed,
        journal=journal,
        tracer=tracer,
        supervision=supervision,
    )
    if args.journal:
        # Full crash recovery, not just PENDING adoption: repairs a torn
        # tail, re-queues RUNNING/ADMITTED jobs from a crashed serve, and
        # seeds the cache from journaled results.  Runs before a manifest
        # is submitted, so its jobs append to a clean tail.
        service.recover()
    if args.manifest:
        for spec in load_manifest(args.manifest):
            service.submit(spec)
    if not service.jobs:
        print("no jobs to run (empty manifest/journal)")
        return 0
    snapshot = service.run_until_complete()
    counters = snapshot["counters"]
    cache = snapshot["cache"]
    print(f"policy={service.policy.name} workers={service.workers} "
          f"deterministic={service.deterministic}")
    print(f"jobs      : {counters.get('jobs_submitted', 0) + counters.get('jobs_adopted', 0)} "
          f"submitted, {counters.get('jobs_succeeded', 0)} succeeded, "
          f"{counters.get('jobs_failed', 0)} failed, "
          f"{counters.get('jobs_retried', 0)} retries")
    print(f"cache     : {cache['hits']} hits, {cache['misses']} misses, "
          f"{cache['evictions']} evictions (hit rate {cache['hit_rate']:.1%})")
    if args.metrics:
        Path(args.metrics).write_text(service.metrics_json())
        print(f"metrics written to {args.metrics}")
    if tracer is not None:
        from repro.obs import write_trace

        written = write_trace(tracer, args.trace)
        _logger.info("trace written to %s (%d bytes)", args.trace, written,
                     extra={"path": args.trace, "bytes": written})
    return 1 if counters.get("jobs_failed", 0) else 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import BatchService, JobSpec

    service = BatchService(
        machine=MACHINES[args.machine], workers=1, journal=args.journal
    )
    qasm_text = Path(args.qasm).read_text() if getattr(args, "qasm", None) else None
    job = service.submit(JobSpec(
        family=None if qasm_text else args.family,
        qubits=args.qubits,
        seed=args.seed,
        qasm=qasm_text,
        version=args.version,
        shots=args.shots,
        priority=args.priority,
        deadline_seconds=args.deadline,
        backend=args.backend,
        precision=args.precision,
    ))
    print(f"submitted {job.job_id} ({job.spec.display_name}) "
          f"fingerprint={job.fingerprint[:16]}...")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.service import JobStore

    store = JobStore(args.journal)
    jobs = [store.get(args.job)] if args.job else list(store.load().values())
    if not jobs:
        print(f"no jobs in {args.journal}")
        return 0
    print(f"{'id':<8} {'name':<14} {'state':<10} {'attempts':>8} "
          f"{'cache':>5}  error")
    for job in sorted(jobs, key=lambda j: j.seq):
        hit = "hit" if job.cache_hit else ""
        print(f"{job.job_id:<8} {job.spec.display_name:<14} "
              f"{job.state.value:<10} {job.attempts:>8} {hit:>5}  "
              f"{job.error or ''}")
    return 0


def _cmd_cancel(args: argparse.Namespace) -> int:
    from repro.errors import ServiceError
    from repro.service import JobState, JobStore

    store = JobStore(args.journal)
    job = store.get(args.job)
    if job.state is not JobState.PENDING:
        raise ServiceError(
            f"job {job.job_id} is {job.state.value}; only PENDING jobs "
            "can be cancelled from the journal"
        )
    job.transition(JobState.CANCELLED)
    store.record_transition(job, None)
    print(f"cancelled {job.job_id}")
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.service import JobStore

    store = JobStore(args.journal)
    before = store.path.stat().st_size if store.path.exists() else 0
    kept = store.compact()
    after = store.path.stat().st_size
    print(f"compacted {args.journal}: {kept} event(s) kept, "
          f"{before} -> {after} bytes")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.obs.ledger import (
        append_record,
        baseline_for,
        build_record,
        diff_records,
        load_ledger,
        render_diff,
        render_record,
    )

    if args.action == "append":
        record = build_record(args.root)
        append_record(args.ledger, record)
        print(f"appended to {args.ledger}:")
        print(render_record(record))
        if args.json:
            Path(args.json).write_text(
                json.dumps(record, sort_keys=True, indent=1) + "\n"
            )
        return 0
    records = load_ledger(args.ledger)
    if not records:
        print(f"{args.ledger} is empty", file=sys.stderr)
        return 1
    if args.action == "show":
        for record in records[-args.last:]:
            print(render_record(record))
            print()
        print(f"{len(records)} record(s) in {args.ledger}")
        return 0
    # diff: newest record vs its per-fingerprint baseline.
    latest = records[-1]
    baseline = baseline_for(records[:-1], latest)
    if baseline is None:
        print(f"no earlier record shares fingerprint "
              f"{latest.get('fingerprint_id')} and mode {latest.get('mode')}; "
              "nothing to compare (append another record on this machine)")
        return 0
    entries = diff_records(baseline, latest, tolerance=args.tolerance)
    print(f"comparing @{latest.get('timestamp')} "
          f"(git {latest.get('git_rev') or '?'}) against "
          f"@{baseline.get('timestamp')} (git {baseline.get('git_rev') or '?'})")
    print(render_diff(entries, tolerance=args.tolerance))
    regressions = [e for e in entries if e.regressed]
    if args.json:
        payload = {
            "baseline_timestamp": baseline.get("timestamp"),
            "latest_timestamp": latest.get("timestamp"),
            "fingerprint_id": latest.get("fingerprint_id"),
            "tolerance": args.tolerance,
            "regressions": [
                {
                    "bench": e.bench, "metric": e.metric,
                    "baseline": e.baseline, "latest": e.latest,
                    "ratio": e.ratio, "direction": e.direction,
                }
                for e in regressions
            ],
            "compared": len(entries),
        }
        Path(args.json).write_text(
            json.dumps(payload, sort_keys=True, indent=1) + "\n"
        )
    return 1 if regressions else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Q-GPU reproduction toolkit"
    )
    parser.add_argument("--log-level", default="warning",
                        choices=["debug", "info", "warning", "error"],
                        help="stderr logging threshold")
    parser.add_argument("--log-format", default="text",
                        choices=["text", "json"],
                        help="log line format (json = one object per line)")
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_backend_options(cmd: argparse.ArgumentParser) -> None:
        from repro.planner import BACKEND_CHOICES, PRECISION_CHOICES

        cmd.add_argument("--backend", default="statevector",
                         choices=BACKEND_CHOICES,
                         help="execution engine ('auto' = circuit-aware "
                              "planner selection)")
        cmd.add_argument("--precision", default="double",
                         choices=PRECISION_CHOICES,
                         help="statevector dtype: double (complex128), "
                              "single (complex64, norm-guarded with a "
                              "double fallback), or auto")

    def _add_obs_options(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--trace", metavar="FILE",
                         help="write a Chrome trace of this run")
        cmd.add_argument("--trace-clock", default="wall",
                         choices=["wall", "logical"],
                         help="span timestamps: wall seconds or logical ticks "
                              "(logical + workers=1 is byte-reproducible)")
        cmd.add_argument("--metrics", metavar="FILE",
                         help="write the counter snapshot JSON here")

    simulate = sub.add_parser("simulate", help="exact functional simulation")
    _add_circuit_options(simulate)
    simulate.add_argument("--shots", type=int, default=100)
    simulate.add_argument("--top", type=int, default=8,
                          help="print the most frequent outcomes")
    simulate.add_argument("--version", default="Q-GPU",
                          choices=sorted(VERSIONS_BY_NAME))
    simulate.add_argument("--fault-plan", metavar="SPEC",
                          help="inject faults, e.g. 'seed=7,transfer=0.05'")
    simulate.add_argument("--checkpoint-every", type=int, metavar="N",
                          help="checkpoint every N gates (needs --checkpoint)")
    simulate.add_argument("--checkpoint", metavar="PATH",
                          help="checkpoint file to write")
    simulate.add_argument("--resume", metavar="PATH",
                          help="resume from a checkpoint file")
    simulate.add_argument("--workers", type=_workers_arg, default="auto",
                          metavar="N|auto",
                          help="chunk-worker threads (1 = bit-exact serial)")
    _add_backend_options(simulate)
    _add_obs_options(simulate)
    simulate.set_defaults(fn=_cmd_simulate)

    estimate = sub.add_parser("estimate", help="performance model")
    _add_circuit_options(estimate)
    estimate.add_argument("--machine", default="p100", choices=sorted(MACHINES))
    estimate.set_defaults(fn=_cmd_estimate)

    experiment = sub.add_parser("experiment", help="run paper reproductions")
    experiment.add_argument("ids", nargs="*", help="experiment ids (default all)")
    experiment.set_defaults(fn=_cmd_experiment)

    profile = sub.add_parser("profile", help="GFC compression profile")
    profile.add_argument("--family", required=True, choices=sorted(FAMILIES))
    profile.add_argument("--qubits", type=int, default=14)
    profile.add_argument("--seed", type=int, default=0)
    profile.set_defaults(fn=_cmd_profile)

    transpile_cmd = sub.add_parser("transpile", help="lower and simplify")
    _add_circuit_options(transpile_cmd)
    transpile_cmd.add_argument("--fingerprint", action="store_true",
                               help="print the circuit content hash instead of QASM")
    _add_obs_options(transpile_cmd)
    transpile_cmd.set_defaults(fn=_cmd_transpile)

    plan = sub.add_parser("plan", help="choose a backend for a workload")
    _add_circuit_options(plan)
    plan.add_argument("--machine", default="p100", choices=sorted(MACHINES))
    from repro.planner import BACKEND_CHOICES, PRECISION_CHOICES

    plan.add_argument("--backend", default="auto", choices=BACKEND_CHOICES,
                      help="force a backend instead of auto-selecting")
    plan.add_argument("--precision", default="auto",
                      choices=PRECISION_CHOICES,
                      help="precision knob fed to the planner")
    plan.set_defaults(fn=_cmd_plan)

    trace = sub.add_parser(
        "trace",
        help="export a chrome-trace of the stream schedule, or summarize/"
             "validate/analyze an exported trace file",
    )
    trace.add_argument("action", nargs="?", default="export",
                       choices=["export", *TRACE_ANALYSIS_ACTIONS],
                       help="export the modelled stream schedule (default), "
                            "or analyse an existing trace file")
    trace.add_argument("file", nargs="?", metavar="FILE",
                       help="trace file for the analysis actions")
    _add_circuit_options(trace)
    trace.add_argument("--machine", default="p100", choices=sorted(MACHINES))
    trace.add_argument("--version", default="Q-GPU", choices=sorted(VERSIONS_BY_NAME))
    trace.add_argument("--gates", type=int, default=6,
                       help="streamed gates to include")
    trace.add_argument("--output", default="qgpu_trace.json")
    trace.add_argument("--devices", type=int, metavar="N",
                       help="'export': stream over N devices with the "
                            "chunk-granular DES executor (per-device lanes "
                            "and link-transfer spans) instead of the "
                            "closed-form stream schedule")
    trace.add_argument("--chunk-bits", type=int, default=14,
                       help="'export --devices': within-chunk qubits of "
                            "the scaled-down DES run")
    trace.add_argument("--capacity-mib", type=float, default=4.0,
                       help="'export --devices': per-device buffer "
                            "capacity (MiB)")
    trace.add_argument("--fleet", action="store_true",
                       help="'analyze': add the fleet report (per-device "
                            "busy/idle, link utilization, comm matrix)")
    trace.add_argument("--top", type=int, default=5,
                       help="bottlenecks ('analyze') or segments "
                            "('critical-path') to print")
    trace.add_argument("--json", metavar="FILE",
                       help="also write the analyze/critical-path result "
                            "as JSON")
    trace.add_argument("--roofline", action="store_true",
                       help="'analyze': also report per-kernel achieved "
                            "throughput vs the machine's CPU bandwidth "
                            "bound (from the trace's kernel counters)")
    trace.add_argument("--tolerance", type=float, default=0.15,
                       help="'drift': max per-stage share drift tolerated")
    trace.add_argument("--report", metavar="FILE",
                       help="'drift': write the JSON drift report here")
    trace.set_defaults(fn=_cmd_trace)

    reliability = sub.add_parser(
        "reliability",
        help="fault-injection demo: recovery and checkpoint/resume",
    )
    _add_circuit_options(reliability)
    reliability.add_argument("--version", default="Q-GPU",
                             choices=sorted(VERSIONS_BY_NAME))
    reliability.add_argument("--fault-plan", metavar="SPEC",
                             help="default 'seed=7,transfer=0.05,codec=0.05,oom=1'")
    reliability.add_argument("--kill-at", type=int, metavar="GATE",
                             help="simulated crash point (default: mid-circuit)")
    reliability.add_argument("--checkpoint-every", type=int, metavar="N",
                             help="checkpoint cadence for the kill/resume demo")
    reliability.set_defaults(fn=_cmd_reliability)

    serve = sub.add_parser(
        "serve-batch",
        help="run a manifest of jobs through the batch service",
    )
    serve.add_argument("--manifest", metavar="PATH",
                       help="JSON job manifest (list or {'jobs': [...]})")
    serve.add_argument("--journal", metavar="PATH",
                       help="JSONL job journal to record to; its unfinished "
                            "jobs are recovered and re-run first")
    serve.add_argument("--journal-fsync", default="never",
                       choices=["never", "always"],
                       help="fsync every journal append (durable against "
                            "power loss, much slower)")
    serve.add_argument("--no-supervision", action="store_true",
                       help="disable the watchdog (no deadline or stall "
                            "reaping)")
    serve.add_argument("--stall-timeout", type=float, default=30.0,
                       metavar="SECONDS",
                       help="reap a worker whose heartbeat is older than "
                            "this")
    serve.add_argument("--workers", type=int, default=4,
                       help="worker threads (1 = deterministic mode)")
    serve.add_argument("--policy", default="fifo",
                       choices=["fifo", "priority", "sjf"])
    serve.add_argument("--machine", default="p100", choices=sorted(MACHINES))
    serve.add_argument("--cache-mb", type=float, metavar="MB",
                       help="result-cache byte budget in MB (default: 16 MiB)")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--max-attempts", type=int, metavar="N",
                       help="job-level retry budget for failing jobs")
    serve.add_argument("--sim-recovery", default="default",
                       choices=["default", "strict"],
                       help="in-run fault policy (strict: faults raise)")
    serve.add_argument("--sim-workers", type=_workers_arg, default=1,
                       metavar="N|auto",
                       help="chunk-worker threads inside each simulation "
                            "(1 = bit-exact serial)")
    serve.add_argument("--metrics", metavar="PATH",
                       help="write the metrics JSON here")
    serve.add_argument("--trace", metavar="PATH",
                       help="write a Chrome trace of scheduling + simulation "
                            "(logical clock when --workers 1)")
    serve.set_defaults(fn=_cmd_serve_batch)

    submit = sub.add_parser("submit", help="append a job to a journal")
    _add_circuit_options(submit)
    submit.add_argument("--journal", required=True, metavar="PATH")
    submit.add_argument("--shots", type=int, default=0)
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument("--deadline", type=float, metavar="SECONDS",
                        help="wall-clock deadline; the watchdog kills the "
                             "job when an attempt exceeds it")
    submit.add_argument("--version", default="Q-GPU",
                        choices=sorted(VERSIONS_BY_NAME))
    submit.add_argument("--machine", default="p100", choices=sorted(MACHINES))
    _add_backend_options(submit)
    submit.set_defaults(fn=_cmd_submit)

    status = sub.add_parser("status", help="show jobs recorded in a journal")
    status.add_argument("--journal", required=True, metavar="PATH")
    status.add_argument("--job", metavar="ID", help="show one job only")
    status.set_defaults(fn=_cmd_status)

    cancel = sub.add_parser("cancel", help="cancel a PENDING journal job")
    cancel.add_argument("--journal", required=True, metavar="PATH")
    cancel.add_argument("job", metavar="ID")
    cancel.set_defaults(fn=_cmd_cancel)

    compact = sub.add_parser(
        "compact",
        help="rewrite a journal as a minimal replay-equivalent snapshot",
    )
    compact.add_argument("--journal", required=True, metavar="PATH")
    compact.set_defaults(fn=_cmd_compact)

    bench = sub.add_parser(
        "bench",
        help="the perf ledger over the BENCH_*.json benchmark artifacts",
    )
    bench.add_argument("target", choices=["ledger"],
                       help="what to operate on (only 'ledger' so far)")
    bench.add_argument("action", choices=["append", "show", "diff"],
                       help="append the current BENCH files as a record, "
                            "show recent records, or diff the newest "
                            "record against its per-fingerprint baseline")
    bench.add_argument("--ledger", default="BENCH_LEDGER.jsonl",
                       metavar="FILE", help="ledger file (JSONL)")
    bench.add_argument("--root", default=".", metavar="DIR",
                       help="directory holding the BENCH_*.json files")
    bench.add_argument("--tolerance", type=float, default=0.05,
                       help="'diff': allowed fractional move in the worse "
                            "direction before a metric regresses")
    bench.add_argument("--last", type=int, default=1,
                       help="'show': records to print")
    bench.add_argument("--json", metavar="FILE",
                       help="also write the record/diff result as JSON")
    bench.set_defaults(fn=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(level=args.log_level, fmt=args.log_format)
    trace_analysis = (
        args.command == "trace" and args.action in TRACE_ANALYSIS_ACTIONS
    )
    # 'drift' is the one analysis action that also needs a circuit: it
    # re-runs the cost model for the same configuration as the trace.
    circuit_free = trace_analysis and args.action != "drift"
    if getattr(args, "family", None) is None and not getattr(args, "qasm", None) \
            and not circuit_free \
            and args.command in ("simulate", "estimate", "transpile", "plan",
                                 "trace", "reliability", "submit"):
        parser.error("provide --family or --qasm")
    if trace_analysis and not args.file:
        parser.error(f"trace {args.action} needs a trace FILE argument")
    if args.command == "serve-batch" and not (args.manifest or args.journal):
        parser.error("provide --manifest and/or --journal")
    try:
        return args.fn(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
