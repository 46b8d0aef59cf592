"""The four front doors a workload's requests go through.

Each door does the same four things for ``worker.py``:

* ``setup()`` - everything before the first timed request (generate the
  QASM texts, warm up);
* ``one_pass(rec)`` - send every request once, one at a time, and return
  the wall time of the pass and the latency of each request; ``rec``
  records a span around every public call (or nothing, in the timed runs);
* ``verify()`` - check every output kept by the passes against the oracle
  and return the operations attempted and the failures;
* ``layers(rec)`` - traced runs only: call single layers standalone and
  return the per-layer metrics.

Every layer is measured from outside, by timing calls into its public
functions.  The only threads are the program's own.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oracle import Reference
from spans import OFF
from stats import median
from workloads import SHOTS, WORKLOADS, Request, requests_for, warmup_request

from repro.circuits import from_qasm
from repro.core.simulator import QGpuSimulator
from repro.statevector.measure import sample_counts

OUT = Path(__file__).resolve().parent / "out"
#: Repeats of the two interpreter start-up probes of the CLI door.
STARTUP_PROBES = 5
#: Width of the real amplitudes the GFC codec is timed on (1 MiB states).
GFC_QUBITS = 16
#: Paper's Fig. 12 average for Q-GPU, normalised to its Baseline.
PAPER_QGPU_NORM = 0.28


def _encode_counts(counts: dict[int, int], num_qubits: int) -> str:
    return json.dumps(
        {format(k, f"0{num_qubits}b"): v for k, v in sorted(counts.items())}
    )


def _decode_counts(payload: str) -> dict[int, int]:
    return {int(bits, 2): count for bits, count in json.loads(payload).items()}


class _References(dict):
    """One oracle reference per distinct QASM text, computed on first use."""

    def __missing__(self, qasm: str) -> Reference:
        self[qasm] = Reference(qasm)
        return self[qasm]


def _request_id(position: int, req: Request) -> str:
    """Identifier shared by the spans of one request of a pass."""
    return f"{position:03d}-{req.name}"


class Door:
    """What ``worker.py`` needs from a front door (see the module docstring).

    ``one_pass`` returns the wall time of the pass and the latency of each
    request in it; ``request_s`` is the first divided by the number of the
    second.
    """

    #: True when a second pass in the same process would not repeat the first.
    single_pass = False

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.requests: list[Request] = []
        self.scratch: Path | None = None

    def setup(self) -> None:
        self.requests = requests_for(self.workload.name, self.seed)

    def make_scratch(self) -> Path:
        """A directory of this process's own under ``bench/out``."""
        self.scratch = OUT / f"tmp_{self.workload.name}_{os.getpid()}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        return self.scratch

    def close(self) -> None:
        """Remove what the door wrote under ``bench/out``."""
        if self.scratch is not None:
            shutil.rmtree(self.scratch, ignore_errors=True)


# -- in-process --------------------------------------------------------------


@dataclass
class Output:
    """What one in-process request produced."""

    payload: str
    backend: str
    precision: str
    amplitudes: np.ndarray | None
    chunk_bits: int
    updates_total: int
    updates_skipped: int


class InProcessDoor(Door):
    """QASM text -> ``from_qasm`` -> ``QGpuSimulator.run`` -> amplitudes (or
    the engine's native state) -> ``sample_counts`` -> JSON counts."""

    def __init__(self, workload: str, seed: int) -> None:
        super().__init__(workload, seed)
        #: Distinct final states per QASM text.  A repeat that is bit-equal
        #: to a kept state is not kept again, so three passes over a 64 MiB
        #: state retain 64 MiB, not 192.
        self.states: dict[str, list[np.ndarray]] = {}
        #: (request, payload, precision, index into ``states`` or None).
        self.outputs: list[tuple[Request, str, str, int | None]] = []
        self.last_pass: list[Output] = []

    def setup(self) -> None:
        super().setup()
        self.request(warmup_request(), "warm-up", OFF)

    def request(self, req: Request, request_id: str, rec) -> Output:
        with rec.span("request", request_id):
            with rec.span("circuits.from_qasm"):
                circuit = from_qasm(req.qasm, name=req.name)
            with rec.span("simulator.run"):
                result = QGpuSimulator(**self.workload.simulator).run(circuit)
            amplitudes = None
            chunk_bits = 0
            if result.backend == "statevector":
                with rec.span("readout"):
                    amplitudes = result.amplitudes
                    sampled = amplitudes
                    if amplitudes.dtype != np.complex128:
                        # As the CLI and the service do: the sampler checks
                        # the norm at double precision.
                        sampled = amplitudes.astype(np.complex128)
                        sampled /= np.linalg.norm(sampled)
                with rec.span("sample"):
                    counts = sample_counts(sampled, shots=SHOTS, seed=req.sample_seed)
                chunk_bits = result.state.chunk_bits
            else:
                with rec.span("sample"):
                    counts = result.state.sample_counts(SHOTS, seed=req.sample_seed)
            with rec.span("serialise"):
                payload = _encode_counts(counts, circuit.num_qubits)
        return Output(
            payload, result.backend, result.precision, amplitudes, chunk_bits,
            result.chunk_updates_total, result.chunk_updates_skipped,
        )

    def one_pass(self, rec) -> tuple[float, list[float]]:
        latencies = []
        self.last_pass = []
        for position, req in enumerate(self.requests):
            start = time.perf_counter()
            out = self.request(req, _request_id(position, req), rec)
            latencies.append(time.perf_counter() - start)
            self._keep(req, out)
            # The state is kept (or dropped) by ``_keep``; the per-pass list
            # is only read for counts and routing.
            out.amplitudes = None
            self.last_pass.append(out)
        # Back-to-back requests of one client: what the benchmark does
        # between two of them is not the program's time.
        return sum(latencies), latencies

    def _keep(self, req: Request, out: Output) -> None:
        index = None
        if out.amplitudes is not None:
            kept = self.states.setdefault(req.qasm, [])
            for index, state in enumerate(kept):
                if state.dtype == out.amplitudes.dtype and np.array_equal(
                    state, out.amplitudes
                ):
                    break
            else:
                kept.append(out.amplitudes)
                index = len(kept) - 1
        self.outputs.append((req, out.payload, out.precision, index))

    def verify(self) -> tuple[int, list[str]]:
        references = _References()
        failures = []
        state_verdicts: dict[tuple[str, int], str | None] = {}
        for req, payload, precision, index in self.outputs:
            reference = references[req.qasm]
            reason = None
            if index is not None:
                key = (req.qasm, index)
                if key not in state_verdicts:
                    state_verdicts[key] = reference.check_state(
                        self.states[req.qasm][index], precision
                    )
                reason = state_verdicts[key]
            if reason is None:
                reason = reference.check_counts(_decode_counts(payload), SHOTS)
            if reason is not None:
                failures.append(f"{req.name}: {reason}")
        return len(self.outputs), failures

    def layers(self, rec) -> dict[str, float]:
        """Standalone calls into single layers, once per request of the
        traced pass, plus the sums the pass's own spans give."""
        from repro.core.reorder import reorder
        from repro.core.versions import QGPU
        from repro.obs import Tracer
        from repro.planner import analyze_circuit, run_backend
        from repro.statevector.fusion import GateSlab, fuse_slabs

        simulator = self.workload.simulator
        dense = not simulator  # the dense workloads take the defaults
        m: dict[str, float] = defaultdict(float)
        run_ns = {s.request: s.duration_ns for s in rec.spans if s.name == "simulator.run"}
        sample_ns = {s.request: s.duration_ns for s in rec.spans if s.name == "sample"}
        live_amps = sweep_ns = serial_ns = 0
        with rec.span("layers"):
            for position, (req, out) in enumerate(zip(self.requests, self.last_pass)):
                request_id = _request_id(position, req)
                circuit = from_qasm(req.qasm, name=req.name)
                m["circuits.gates"] += len(circuit)
                inside_run_ns = 0  # standalone time of what also runs inside ``run``
                if not dense:
                    with rec.span("planner.plan", request_id) as span:
                        chosen = QGpuSimulator(**simulator).plan(circuit)
                    inside_run_ns += span.duration_ns
                    m[f"planner.selected.{chosen.backend}"] += 1
                    m["planner.precision.single"] += chosen.precision == "single"
                    with rec.span("planner.analyze_circuit", request_id):
                        analyze_circuit(circuit)
                if out.backend == "stabilizer":
                    with rec.span("planner.run_backend.stabilizer", request_id):
                        run_backend(circuit, "stabilizer")
                    m["planner.sample_s.stabilizer"] += sample_ns[request_id] / 1e9
                if out.backend == "statevector":
                    with rec.span("core.reorder", request_id) as span:
                        ordered = reorder(circuit, QGPU.reorder_strategy)
                    inside_run_ns += span.duration_ns
                    with rec.span("statevector.fuse_slabs", request_id) as span:
                        ops = fuse_slabs(list(ordered), chunk_bits=out.chunk_bits)
                    inside_run_ns += span.duration_ns
                    m["statevector.fusion.slabs"] += sum(isinstance(op, GateSlab) for op in ops)
                    m["statevector.fusion.sweeps"] += len(ops)
                    m["core.pruning.updates_total"] += out.updates_total
                    m["core.pruning.updates_skipped"] += out.updates_skipped
                    live = (out.updates_total - out.updates_skipped) << out.chunk_bits
                    live_amps += live
                    m["statevector.computed_bytes"] += (
                        2 * live * (8 if out.precision == "single" else 16)
                    )
                    sweep_ns += run_ns[request_id] - inside_run_ns
                    m["statevector.sample_s"] += sample_ns[request_id] / 1e9
                    if dense:
                        with rec.span("simulator.run.serial", request_id) as span:
                            QGpuSimulator(workers=1).run(circuit)
                        serial_ns += span.duration_ns
                        m[f"statevector.run_default_s.{req.name}"] = run_ns[request_id] / 1e9
                        m[f"statevector.run_serial_s.{req.name}"] = span.duration_ns / 1e9
                with rec.span("simulator.run.tracer", request_id):
                    QGpuSimulator(tracer=Tracer(), **simulator).run(circuit)
        m["circuits.from_qasm_s"] = rec.seconds("circuits.from_qasm")
        m["planner.plan_s"] = rec.seconds("planner.plan")
        m["planner.analyze_s"] = rec.seconds("planner.analyze_circuit")
        m["planner.plan_share"] = m["planner.plan_s"] / rec.seconds("request")
        m["planner.run_backend_s.stabilizer"] = rec.seconds("planner.run_backend.stabilizer")
        m["core.reorder_s"] = rec.seconds("core.reorder")
        m["statevector.fuse_s"] = rec.seconds("statevector.fuse_slabs")
        m["statevector.readout_s"] = rec.seconds("readout")
        # Derived, not a span: plan, reorder and fuse also run inside
        # ``run``, so their standalone times were subtracted from it.
        m["statevector.sweep_s"] = sweep_ns / 1e9
        if sweep_ns > 0:
            m["statevector.gate_amps_per_s"] = live_amps / (sweep_ns / 1e9)
        if m["core.pruning.updates_total"]:
            m["core.pruning.pruned_fraction"] = (
                m["core.pruning.updates_skipped"] / m["core.pruning.updates_total"]
            )
        if dense:
            m["statevector.parallel_ratio"] = serial_ns / sum(run_ns.values())
        m["obs.tracer_enabled_ratio"] = (
            rec.seconds("simulator.run.tracer") * 1e9 / sum(run_ns.values())
        )
        return dict(m)


# -- CLI ---------------------------------------------------------------------


class CliDoor(Door):
    """``python -m repro simulate --qasm F --backend auto --precision auto
    --shots N --seed S`` as a subprocess, one at a time.  The subprocess
    inherits the worker's environment, where ``run.py`` put ``src/`` on
    ``PYTHONPATH``."""

    def __init__(self, workload: str, seed: int) -> None:
        super().__init__(workload, seed)
        self.files: list[Path] = []
        self.outputs: list[tuple[Request, int, str]] = []

    def setup(self) -> None:
        super().setup()
        self.make_scratch()
        # One directory per request: the CLI names the circuit after the
        # file's stem, and the stem must stay ``family_width``.
        for position, req in enumerate([warmup_request()] + self.requests):
            path = self.scratch / f"{position:03d}" / f"{req.name}.qasm"
            path.parent.mkdir()
            path.write_text(req.qasm)
            self.files.append(path)
        self._simulate(self.files.pop(0), warmup_request())

    def _simulate(self, path: Path, req: Request) -> subprocess.CompletedProcess:
        return subprocess.run(
            [
                sys.executable, "-m", "repro", "simulate", "--qasm", str(path),
                "--backend", "auto", "--precision", "auto",
                "--shots", str(SHOTS), "--seed", str(req.sample_seed),
            ],
            capture_output=True, text=True, timeout=120,
        )

    def one_pass(self, rec) -> tuple[float, list[float]]:
        latencies = []
        for position, (path, req) in enumerate(zip(self.files, self.requests)):
            start = time.perf_counter()
            with rec.span("cli.request", _request_id(position, req)):
                done = self._simulate(path, req)
            latencies.append(time.perf_counter() - start)
            self.outputs.append((req, done.returncode, done.stdout))
        return sum(latencies), latencies

    def verify(self) -> tuple[int, list[str]]:
        references = _References()
        failures = []
        for req, returncode, stdout in self.outputs:
            reason = None
            if returncode != 0:
                reason = f"exit code {returncode}"
            else:
                # ``  |0101>  17`` lines: the most frequent outcomes.
                listed = {
                    int(line.split("|")[1].split(">")[0], 2): int(line.split()[-1])
                    for line in stdout.splitlines()
                    if line.startswith("  |")
                }
                if not listed:
                    reason = "no outcomes printed"
                elif sum(listed.values()) > SHOTS:
                    reason = f"{sum(listed.values())} shots listed, {SHOTS} requested"
                else:
                    reason = references[req.qasm].check_counts(listed, None)
            if reason is not None:
                failures.append(f"{req.name}: {reason}")
        return len(self.outputs), failures

    def layers(self, rec) -> dict[str, float]:
        probes = {
            "cli.import": [sys.executable, "-c", "import repro.cli"],
            "cli.startup": [sys.executable, "-m", "repro", "--help"],
        }
        m = {}
        with rec.span("layers"):
            for name, command in probes.items():
                samples = []
                for _ in range(STARTUP_PROBES):
                    with rec.span(name) as span:
                        subprocess.run(command, capture_output=True, check=True)
                    samples.append(span.duration_ns / 1e9)
                m[f"{name}_s"] = median(samples)
        return m


# -- batch service -----------------------------------------------------------


class BatchDoor(Door):
    """One ``BatchService(policy="sjf", journal=...)`` per pass: submit every
    job, drain, then replay the journal it wrote.

    The pass's wall time runs from the first ``submit`` until
    ``run_until_complete`` returns; a job's latency is its turnaround, from
    the first ``submit`` until it finished.
    """

    def __init__(self, workload: str, seed: int) -> None:
        super().__init__(workload, seed)
        self.passes: list[dict] = []

    def _spec(self, req: Request):
        from repro.service import JobSpec

        return JobSpec(
            qasm=req.qasm, name=req.name, shots=SHOTS, seed=req.sample_seed,
            **self.workload.simulator,
        )

    def _service(self, journal: Path):
        from repro.service import BatchService

        return BatchService(
            policy="sjf", workers=min(2, os.cpu_count() or 1), journal=journal
        )

    def setup(self) -> None:
        super().setup()
        self.make_scratch()
        service = self._service(self.scratch / "warmup.jsonl")
        service.submit(self._spec(warmup_request()))
        service.run_until_complete()

    def one_pass(self, rec) -> tuple[float, list[float]]:
        from repro.service import JobStore

        journal = self.scratch / f"journal_{len(self.passes)}.jsonl"
        service = self._service(journal)
        with rec.span("batch"):
            start = time.perf_counter()
            for position, req in enumerate(self.requests):
                with rec.span("service.submit", _request_id(position, req)):
                    service.submit(self._spec(req))
            with rec.span("service.run_until_complete"):
                snapshot = service.run_until_complete()
            makespan = time.perf_counter() - start
            with rec.span("service.store.load"):
                replayed = JobStore(journal).load()
        jobs = service.jobs
        self.passes.append(
            {
                "jobs": jobs,
                "snapshot": snapshot,
                "replayed": replayed,
                "journal_bytes": journal.stat().st_size,
            }
        )
        first_submit = jobs[0].submitted_at
        return makespan, [
            (job.finished_at or first_submit) - first_submit for job in jobs
        ]

    def verify(self) -> tuple[int, list[str]]:
        from repro.service import JobState

        references = _References()
        failures = []
        attempted = 0
        distinct = len({req.qasm for req in self.requests})
        for number, done in enumerate(self.passes):
            for req, job in zip(self.requests, done["jobs"]):
                attempted += 1
                if job.state is not JobState.SUCCEEDED:
                    reason = f"state {job.state.value}: {job.error}"
                else:
                    counts = {int(k): v for k, v in job.result.counts.items()}
                    reason = references[req.qasm].check_counts(counts, SHOTS)
                if reason is not None:
                    failures.append(f"pass {number} {job.job_id} {req.name}: {reason}")
            cache = done["snapshot"]["cache"]
            expected = (len(self.requests) - distinct, distinct)
            attempted += 1
            if (cache["hits"], cache["misses"]) != expected:
                failures.append(
                    f"pass {number}: cache hits/misses {cache['hits']}/"
                    f"{cache['misses']}, expected {expected[0]}/{expected[1]}"
                )
            attempted += 1
            replayed = done["replayed"]
            if len(replayed) != len(self.requests) or any(
                job.state is not JobState.SUCCEEDED for job in replayed.values()
            ):
                failures.append(f"pass {number}: journal replay lost jobs")
        return attempted, failures

    def layers(self, rec) -> dict[str, float]:
        from repro.service import JobStore, ResultCache

        done = self.passes[-1]
        jobs = done["jobs"]
        counters = done["snapshot"]["counters"]
        cache = ResultCache(16 * 1024 * 1024)
        store = JobStore(self.scratch / "standalone.jsonl")
        with rec.span("layers"):
            for position, (req, job) in enumerate(zip(self.requests, jobs)):
                request_id = _request_id(position, req)
                circuit = from_qasm(req.qasm, name=req.name)
                with rec.span("service.estimate_cost", request_id):
                    QGpuSimulator(**self.workload.simulator).estimate_cost(circuit)
                with rec.span("service.cache.put", request_id):
                    cache.put(job.cache_key, job.result)
                with rec.span("service.cache.get", request_id):
                    cache.get(job.cache_key)
                with rec.span("service.store.append", request_id):
                    store.append({"event": "result", "job_id": job.job_id,
                                  "result": job.result.to_dict()})
        count = len(jobs)
        return {
            "service.submit_s": rec.seconds("service.submit") / count,
            "service.estimate_cost_s": rec.seconds("service.estimate_cost") / count,
            "service.drain_s": rec.seconds("service.run_until_complete"),
            "service.cache.hits": done["snapshot"]["cache"]["hits"],
            "service.cache.misses": done["snapshot"]["cache"]["misses"],
            "service.cache.get_s": rec.seconds("service.cache.get") / count,
            "service.cache.put_s": rec.seconds("service.cache.put") / count,
            "service.store.append_s": rec.seconds("service.store.append") / count,
            "service.store.bytes": done["journal_bytes"],
            "service.store.replay_s": rec.seconds("service.store.load"),
            "service.retries": counters.get("jobs_retried", 0),
            "service.failed": counters.get("jobs_failed", 0),
        }


# -- paper figures -----------------------------------------------------------


class FiguresDoor(Door):
    """``run_experiment(id)`` for every registered id, once, cold.

    A pass is only cold in a fresh process, so this door never repeats it
    (``single_pass``), whatever ``--seconds`` says.
    """

    single_pass = True

    def __init__(self, workload: str, seed: int) -> None:
        super().__init__(workload, seed)
        self.results: dict = {}
        self.ids: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.events = 0

    def setup(self) -> None:
        from repro.experiments import all_experiment_ids

        self.ids = all_experiment_ids()

    def one_pass(self, rec) -> tuple[float, list[float]]:
        from repro.experiments import run_experiment

        latencies = []
        restore = self._wrap_executors(rec) if rec.enabled else None
        try:
            with rec.span("figures"):
                for experiment_id in self.ids:
                    start = time.perf_counter()
                    with rec.span(f"experiments.{experiment_id}", experiment_id):
                        self.results[experiment_id] = run_experiment(experiment_id)
                    latencies.append(time.perf_counter() - start)
        finally:
            if restore is not None:
                restore()
        return sum(latencies), latencies

    def _wrap_executors(self, rec):
        """Traced pass only: a span and a call count around the two public
        ``execute`` methods, set on the classes so every caller sees them."""
        from repro.core.detailed import DetailedExecutor
        from repro.core.executor import TimedExecutor

        originals = {
            (TimedExecutor, "core.executor.execute"): TimedExecutor.execute,
            (DetailedExecutor, "core.detailed.execute"): DetailedExecutor.execute,
        }

        def wrapped(name, original):
            def execute(*args, **kwargs):
                self.calls[name] += 1
                with rec.span(name):
                    run = original(*args, **kwargs)
                if name == "core.detailed.execute":
                    self.events += len(run.timeline.records)
                return run

            return execute

        for (cls, name), original in originals.items():
            cls.execute = wrapped(name, original)

        def restore() -> None:
            for (cls, _), original in originals.items():
                cls.execute = original

        return restore

    def verify(self) -> tuple[int, list[str]]:
        failures = [
            f"{experiment_id}: no table"
            for experiment_id in self.ids
            if experiment_id not in self.results
            or not self.results[experiment_id].rows
            or not self.results[experiment_id].render()
        ]
        return len(self.ids), failures

    def layers(self, rec) -> dict[str, float]:
        from repro.circuits.library import FAMILIES, get_circuit
        from repro.compression import gfc
        from repro.compression.profile import measure_profile
        from repro.core.detailed import DetailedExecutor
        from repro.core.reorder import reorder
        from repro.core.versions import ALL_VERSIONS, OVERLAP, QGPU
        from repro.experiments.fig19_multigpu import (
            FLEET_CAPACITY, FLEET_CHUNK_BITS, FLEET_QUBITS,
        )
        from repro.hardware.machine import Machine
        from repro.hardware.specs import MULTI_P4_MACHINE
        from repro.hardware.trace import to_chrome_trace
        from repro.obs.analyze import analyze
        from repro.obs.export import spans_from_events
        from repro.obs.fleet import fleet_analysis
        from repro.statevector import simulate

        m: dict[str, float] = {}
        transfer_bytes = 0.0
        raw_bytes = 0
        with rec.span("layers"):
            for family in FAMILIES:
                circuit = get_circuit(family, 34)
                for strategy in ("greedy", "forward_looking"):
                    with rec.span("core.reorder", f"{family}_34"):
                        reorder(circuit, strategy)
                timing = QGpuSimulator(version=QGPU).estimate(circuit)
                transfer_bytes += timing.bytes_h2d + timing.bytes_d2h

                amplitudes = np.asarray(simulate(get_circuit(family, GFC_QUBITS)).amplitudes)
                with rec.span("compression.gfc.compress", family):
                    stream = gfc.compress(amplitudes, num_segments=8)
                with rec.span("compression.gfc.decompress", family):
                    restored = gfc.decompress(stream)
                if not np.array_equal(restored.view(np.complex128), amplitudes):
                    raise RuntimeError(f"GFC round trip changed {family}_{GFC_QUBITS}")
                raw_bytes += amplitudes.nbytes
                m[f"compression.gfc.ratio.{family}"] = len(stream) / amplitudes.nbytes
                with rec.span("compression.profile.measure", family):
                    measure_profile(family)

            # The DES run fig19 reduces, as input to the two span analyses.
            run = DetailedExecutor(
                Machine(MULTI_P4_MACHINE), chunk_bits=FLEET_CHUNK_BITS,
                capacity_bytes=FLEET_CAPACITY, devices=4,
            ).execute(get_circuit("qft", FLEET_QUBITS), OVERLAP)
            des_spans = spans_from_events(to_chrome_trace(run.timeline, time_scale=1.0))
            with rec.span("obs.fleet_analysis"):
                fleet_analysis(des_spans)
            with rec.span("obs.analyze"):
                analyze(des_spans)

        m["core.reorder_34q_s"] = rec.seconds("core.reorder")
        m["core.executor.execute_s"] = rec.seconds("core.executor.execute")
        m["core.executor.calls"] = self.calls["core.executor.execute"]
        m["core.detailed.execute_s"] = rec.seconds("core.detailed.execute")
        m["hardware.events.count"] = self.events
        if m["core.detailed.execute_s"] > 0:
            m["hardware.events_per_s"] = self.events / m["core.detailed.execute_s"]
        m["obs.fleet_spans_per_s"] = len(des_spans) / rec.seconds("obs.fleet_analysis")
        m["obs.analyze_spans_per_s"] = len(des_spans) / rec.seconds("obs.analyze")
        m["compression.gfc.compress_mb_per_s"] = (
            raw_bytes / 1e6 / rec.seconds("compression.gfc.compress")
        )
        m["compression.gfc.decompress_mb_per_s"] = (
            raw_bytes / 1e6 / rec.seconds("compression.gfc.decompress")
        )
        m["compression.profile.measure_s"] = rec.seconds("compression.profile.measure")
        for span in rec.spans:
            if span.name.startswith("experiments."):
                m[f"{span.name}_s"] = span.duration_ns / 1e9

        # Simulated (modelled GPU-server) statistics: a change to the host
        # code must leave every one of them identical.
        averages = self.results["fig12"].data["averages_at_largest"]
        for version in ALL_VERSIONS:
            key = version.name.lower().replace("-", "")
            m[f"sim.fig12.{key}_norm_34q"] = averages[version.name]
        m["sim.fig12.qgpu_vs_paper"] = averages[QGPU.name] / PAPER_QGPU_NORM
        m["sim.fig13.transfer_bytes"] = transfer_bytes
        m["sim.fig19.comm_bytes"] = sum(
            fleet["transfer_bytes"] for fleet in self.results["fig19"].data["fleet"].values()
        )
        tables = "\n".join(self.results[i].render() for i in self.ids)
        m["sim.tables_digest48"] = int(hashlib.sha256(tables.encode()).hexdigest()[:12], 16)
        return m


DOORS = {
    "inprocess": InProcessDoor,
    "cli": CliDoor,
    "batch": BatchDoor,
    "figures": FiguresDoor,
}

