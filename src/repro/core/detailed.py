"""Chunk-granular executor: the streaming runtime as an explicit task graph.

The production :class:`~repro.core.executor.TimedExecutor` prices gates with
closed-form pipeline formulas because 34-qubit runs involve ~8192 chunks x
~1800 gates.  This module builds the *same* execution at full chunk
granularity - one H2D copy, one kernel and one D2H copy task **per live
chunk batch**, wired with the double-buffer dependencies - and runs it on
the discrete-event engine.

Uses:

* **validation** - at scaled-down sizes the detailed makespan must agree
  with the closed-form executor (tested to a few percent, the pipeline
  fill/drain difference);
* **inspection** - the resulting :class:`~repro.hardware.events.TimelineResult`
  renders as a Gantt chart or chrome trace at chunk resolution, showing
  exactly which chunks each optimization skipped.

Multi-GPU machines execute the paper's Fig. 18 discipline at the same
granularity: each gate's chunk groups are assigned round-robin via
:func:`~repro.core.multigpu.assign_round_robin`, every device gets its own
``gpu{d}:h2d`` / ``gpu{d}:gpu`` / ``gpu{d}:d2h`` resource lanes, and a chunk
whose ownership moves between gates relays through host memory - the new
owner's H2D waits on the old owner's D2H, never on a peer link.  Every
transfer task carries ``meta`` annotations (device, link id, bytes) so the
exported trace supports the fleet analytics in :mod:`repro.obs.fleet`, and
the run accounts bytes per endpoint pair and per link for the
communication-matrix identity those analytics are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuits.circuit import QuantumCircuit
from repro.core.liveness import LiveTracker, live_schedule
from repro.core.multigpu import assign_round_robin
from repro.core.reorder import reorder
from repro.core.versions import VersionConfig
from repro.errors import SimulationError
from repro.hardware.events import EventTimeline, TimelineResult
from repro.hardware.machine import Machine
from repro.hardware.specs import AMP_BYTES
from repro.hardware.topology import HOST


@dataclass
class DetailedRun:
    """Outcome of a chunk-granular execution.

    Attributes:
        timeline: The event-engine result (per-task starts/finishes).
        makespan: Total modelled seconds.
        chunk_copies: H2D chunk-batch copies issued.
        chunks_pruned: Chunk transfers the version's pruning rule skipped.
        gates: Gates executed.
        devices: Devices the run streamed over.
        transfers: Bytes moved per ``(src, dst)`` endpoint pair - the
            ground truth the fleet comm matrix must reproduce exactly.
        link_bytes: Bytes carried per topology link id (both directions).
    """

    timeline: TimelineResult
    makespan: float
    chunk_copies: int
    chunks_pruned: int
    gates: int
    devices: int = 1
    transfers: dict[tuple[str, str], float] = field(default_factory=dict)
    link_bytes: dict[str, float] = field(default_factory=dict)

    @property
    def bytes_h2d(self) -> float:
        """Total bytes streamed host-to-device."""
        return sum(b for (src, _), b in self.transfers.items() if src == HOST)

    @property
    def bytes_d2h(self) -> float:
        """Total bytes streamed device-to-host."""
        return sum(b for (_, dst), b in self.transfers.items() if dst == HOST)

    def comm_matrix(self) -> dict[str, dict[str, float]]:
        """Endpoint-to-endpoint byte matrix (``{src: {dst: bytes}}``)."""
        matrix: dict[str, dict[str, float]] = {}
        for (src, dst), moved in sorted(self.transfers.items()):
            matrix.setdefault(src, {})[dst] = moved
        return matrix


class DetailedExecutor:
    """Builds and runs chunk-level task graphs for the streaming versions.

    Args:
        machine: Hardware model supplying bandwidths and kernel times.
        chunk_bits: Within-chunk qubits.
        capacity_bytes: Per-device GPU buffer capacity override - scale
            this *down* together with the circuit width so streaming
            occurs at tractable task counts (the default uses the real
            device).
        devices: Device count override; defaults to the machine's GPU
            count.  With more than one device each gate's chunk groups
            are assigned round-robin (Fig. 18) and every device gets its
            own transfer/compute lanes.

    Only dynamic-allocation versions are supported (the static baseline has
    no streaming pipeline to inspect).
    """

    def __init__(
        self,
        machine: Machine,
        chunk_bits: int,
        capacity_bytes: int | None = None,
        devices: int | None = None,
    ) -> None:
        self.machine = machine
        self.chunk_bits = chunk_bits
        self.capacity_bytes = (
            capacity_bytes
            if capacity_bytes is not None
            else machine.gpu_capacity_bytes()
        )
        if self.capacity_bytes < (AMP_BYTES << chunk_bits):
            raise SimulationError("capacity smaller than one chunk")
        self.devices = devices if devices is not None else len(machine.spec.gpus)
        if self.devices < 1:
            raise SimulationError("need at least one device")

    def execute(
        self,
        circuit: QuantumCircuit,
        version: VersionConfig,
        compression_ratio: float = 1.0,
    ) -> DetailedRun:
        if not version.dynamic_allocation:
            raise SimulationError(
                "the detailed executor models the streaming versions only"
            )
        n = circuit.num_qubits
        if n < self.chunk_bits:
            raise SimulationError("circuit narrower than a chunk")
        if n - self.chunk_bits > 10:
            raise SimulationError(
                "detailed execution beyond 1024 chunks is impractical; "
                "scale the workload down"
            )
        devices = self.devices
        spec = self.machine.spec
        if devices != len(spec.gpus):
            spec = spec.with_gpu_count(devices)
        topology = spec.interconnect()
        dev_names = topology.devices

        ordered = reorder(circuit, version.reorder_strategy)
        chunk_bytes = AMP_BYTES << self.chunk_bits
        chunk_amps = 1 << self.chunk_bits
        num_chunks = 1 << (n - self.chunk_bits)
        buffer_bytes = self.capacity_bytes // 2 if version.overlap else self.capacity_bytes
        batch_chunks = max(1, buffer_bytes // chunk_bytes)
        ratio = compression_ratio if version.compression else 1.0

        timeline = EventTimeline()
        tracker = LiveTracker(n, version.pruning)
        previous_in: dict[int, str | None] = {d: None for d in range(devices)}
        previous_comp: dict[int, str | None] = {d: None for d in range(devices)}
        previous_out: dict[int, str | None] = {d: None for d in range(devices)}
        out_ring: dict[int, list[str]] = {d: [] for d in range(devices)}
        #: chunk index -> (owner device, D2H task that last wrote it back).
        last_writer: dict[int, tuple[int, str]] = {}
        transfers: dict[tuple[str, str], float] = {}
        link_bytes: dict[str, float] = {}
        chunk_copies = 0
        chunks_pruned = 0

        def account(src: str, dst: str, link_id: str, moved: float) -> None:
            transfers[(src, dst)] = transfers.get((src, dst), 0.0) + moved
            link_bytes[link_id] = link_bytes.get(link_id, 0.0) + moved

        for gate, gate_index, _ in live_schedule(ordered, tracker):
            live = list(tracker.subcube(self.chunk_bits))
            chunks_pruned += num_chunks - len(live)

            if devices == 1:
                owned = {0: live}
            else:
                assignment = assign_round_robin(
                    n, self.chunk_bits, gate, devices
                )
                live_set = set(live)
                owned = {
                    d: [
                        index
                        for group, owner in zip(
                            assignment.groups, assignment.owners
                        )
                        if owner == d
                        for index in group
                        if index in live_set
                    ]
                    for d in range(devices)
                }

            for dev in range(devices):
                chunks = owned[dev]
                if not chunks:
                    continue
                dev_name = dev_names[dev]
                host_link = topology.host_link(dev_name)
                link_bw = host_link.spec.bandwidth_per_direction
                latency = host_link.spec.latency
                h2d_res, gpu_res, d2h_res = (
                    ("h2d", "gpu", "d2h")
                    if devices == 1
                    else (
                        f"{dev_name}:h2d",
                        f"{dev_name}:gpu",
                        f"{dev_name}:d2h",
                    )
                )
                batches = [
                    chunks[start : start + batch_chunks]
                    for start in range(0, len(chunks), batch_chunks)
                ]
                for batch_index, batch in enumerate(batches):
                    batch_bytes = len(batch) * chunk_bytes * ratio
                    moved = (
                        int(batch_bytes)
                        if batch_bytes == int(batch_bytes)
                        else batch_bytes
                    )
                    label = (
                        f"g{gate_index}b{batch_index}"
                        if devices == 1
                        else f"g{gate_index}d{dev}b{batch_index}"
                    )
                    in_name, comp_name, out_name = (
                        f"{label}/in", f"{label}/comp", f"{label}/out",
                    )

                    in_deps = []
                    if version.overlap:
                        if previous_in[dev]:
                            in_deps.append(previous_in[dev])
                        if len(out_ring[dev]) >= 2:
                            in_deps.append(out_ring[dev][-2])
                    else:
                        if previous_out[dev]:
                            in_deps.append(previous_out[dev])
                    # A chunk changing owners relays through host memory:
                    # the new owner's copy-in waits for the old owner's
                    # copy-out (Fig. 18 - no peer-to-peer traffic).
                    for index in batch:
                        writer = last_writer.get(index)
                        if writer is not None and writer[0] != dev:
                            in_deps.append(writer[1])
                    timeline.add(
                        in_name, h2d_res,
                        batch_bytes / link_bw + latency, tuple(set(in_deps)),
                        meta={
                            "device": dev_name,
                            "link": host_link.link_id,
                            "src": HOST,
                            "dst": dev_name,
                            "bytes": moved,
                            "chunks": len(batch),
                        },
                    )
                    account(HOST, dev_name, host_link.link_id, moved)
                    chunk_copies += 1

                    kernel = self.machine.gpu_compute_time(
                        len(batch) * chunk_amps, gate.num_qubits, gate.is_diagonal
                    )
                    codec = (
                        self.machine.codec_time(2 * len(batch) * chunk_bytes)
                        if version.compression
                        else 0.0
                    )
                    comp_deps = [in_name] + (
                        [previous_comp[dev]] if previous_comp[dev] else []
                    )
                    timeline.add(
                        comp_name, gpu_res, kernel + codec, tuple(comp_deps),
                        meta={"device": dev_name, "chunks": len(batch)},
                    )

                    out_deps = [comp_name] + (
                        [previous_out[dev]] if previous_out[dev] else []
                    )
                    timeline.add(
                        out_name, d2h_res,
                        batch_bytes / link_bw + latency, tuple(out_deps),
                        meta={
                            "device": dev_name,
                            "link": host_link.link_id,
                            "src": dev_name,
                            "dst": HOST,
                            "bytes": moved,
                            "chunks": len(batch),
                        },
                    )
                    account(dev_name, HOST, host_link.link_id, moved)
                    previous_in[dev], previous_comp[dev], previous_out[dev] = (
                        in_name, comp_name, out_name,
                    )
                    out_ring[dev].append(out_name)
                    for index in batch:
                        last_writer[index] = (dev, out_name)

        result = timeline.run() if len(timeline) else TimelineResult({}, 0.0, {})
        return DetailedRun(
            timeline=result,
            makespan=result.makespan,
            chunk_copies=chunk_copies,
            chunks_pruned=chunks_pruned,
            gates=len(ordered),
            devices=devices,
            transfers=transfers,
            link_bytes=link_bytes,
        )
