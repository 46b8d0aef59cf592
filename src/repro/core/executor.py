"""The timed executor: runs a circuit's chunk schedule on the machine model.

For every gate the executor derives the same quantities the real Q-GPU
runtime's scheduler derives - which chunks are live, which must move, what
the GPU and CPU each compute - and converts them to seconds with the
calibrated machine model.  The per-version disciplines follow the paper:

* **Baseline** (static allocation, Section III-B): the first chunks fill the
  GPU, the rest stay on the host; gates touching qubits above the chunk
  boundary trigger reactive, serialised chunk exchanges (Fig. 1, Case 2).
* **Naive** (Section III-D): every gate streams the full state vector
  through the GPU over a single stream (H2D, kernel, D2H serialise).
* **Overlap** (Section IV-A): two streams over two buffer halves; H2D, the
  kernel and D2H of consecutive batches overlap
  (:func:`~repro.hardware.pipeline.double_buffered_roundtrip`).
* **Pruning / Reorder** (Sections IV-B/C): only live chunks (Algorithm 1)
  are streamed and updated; while the live state fits on the GPU nothing
  moves at all.  Reordering is applied to the circuit before execution.
* **Compression** (Section IV-D): streamed bytes shrink by the measured
  per-family GFC ratio; the codec occupies the GPU alongside the kernel.

Multi-GPU machines follow Fig. 18: chunk groups are assigned round-robin,
each GPU streams its share over its own link, and the makespan is the
slowest GPU's pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.core.liveness import LiveTracker, live_schedule
from repro.core.reorder import reorder
from repro.core.versions import VersionConfig
from repro.errors import SimulationError
from repro.hardware.machine import Machine
from repro.hardware.pipeline import (
    StageTimes,
    double_buffered_roundtrip,
    serial_roundtrip,
)
from repro.hardware.specs import AMP_BYTES

#: Default within-chunk qubits; QISKit-Aer uses 2^21-amplitude (32 MiB)
#: chunks, giving the paper's 8192 chunks at 34 qubits.
DEFAULT_CHUNK_BITS = 21
#: Upper bound on the number of chunks the dispatcher manages (the paper's
#: observed maximum); wider registers get proportionally larger chunks.
MAX_CHUNK_COUNT_BITS = 13
#: Reactive (baseline) chunk exchange moves each chunk through a staging
#: slot because the statically allocated GPU is full: evict + fill.
REACTIVE_STAGING_FACTOR = 2.0
#: Host-side synchronisation per reactively exchanged chunk (stream sync +
#: dispatcher bookkeeping), part of Fig. 2's "exchange and synchronisation".
REACTIVE_SYNC_SECONDS = 0.5e-3


@dataclass
class GateTiming:
    """Per-gate timing and accounting record."""

    index: int
    name: str
    seconds: float
    cpu_seconds: float = 0.0
    gpu_seconds: float = 0.0
    transfer_seconds: float = 0.0
    codec_seconds: float = 0.0
    bytes_h2d: float = 0.0
    bytes_d2h: float = 0.0
    live_fraction: float = 1.0


@dataclass
class TimedResult:
    """Modelled end-to-end execution of one circuit under one version.

    Attributes:
        circuit_name: Name of the executed circuit.
        version: The version's display name.
        machine: The machine's display name.
        num_qubits: Register width.
        total_seconds: Modelled wall-clock time.
        cpu_seconds: Host compute time (chunk updates on the CPU).
        gpu_seconds: GPU kernel busy time.
        transfer_seconds: Time *exposed* by data movement - the part of the
            makespan not covered by compute (what Fig. 13 plots).
        codec_seconds: GPU time spent in GFC compress/decompress.
        bytes_h2d: Bytes moved host-to-device (post-compression).
        bytes_d2h: Bytes moved device-to-host (post-compression).
        gpu_flops: Floating-point operations executed on the GPU.
        gpu_bytes_touched: DRAM traffic of the GPU kernels (for rooflines).
        per_gate: Per-gate records, in execution order.
    """

    circuit_name: str
    version: str
    machine: str
    num_qubits: int
    total_seconds: float = 0.0
    cpu_seconds: float = 0.0
    gpu_seconds: float = 0.0
    transfer_seconds: float = 0.0
    codec_seconds: float = 0.0
    bytes_h2d: float = 0.0
    bytes_d2h: float = 0.0
    gpu_flops: float = 0.0
    gpu_bytes_touched: float = 0.0
    per_gate: list[GateTiming] = field(default_factory=list)

    def add(self, timing: GateTiming) -> None:
        self.per_gate.append(timing)
        self.total_seconds += timing.seconds
        self.cpu_seconds += timing.cpu_seconds
        self.gpu_seconds += timing.gpu_seconds
        self.transfer_seconds += timing.transfer_seconds
        self.codec_seconds += timing.codec_seconds
        self.bytes_h2d += timing.bytes_h2d
        self.bytes_d2h += timing.bytes_d2h

    def to_csv(self) -> str:
        """Per-gate records as CSV text (for offline analysis/plotting)."""
        header = (
            "index,name,seconds,cpu_seconds,gpu_seconds,transfer_seconds,"
            "codec_seconds,bytes_h2d,bytes_d2h,live_fraction"
        )
        lines = [header]
        for g in self.per_gate:
            lines.append(
                f"{g.index},{g.name},{g.seconds!r},{g.cpu_seconds!r},"
                f"{g.gpu_seconds!r},{g.transfer_seconds!r},{g.codec_seconds!r},"
                f"{g.bytes_h2d!r},{g.bytes_d2h!r},{g.live_fraction!r}"
            )
        return "\n".join(lines) + "\n"

    def breakdown(self) -> dict[str, float]:
        """Fractions of total time: cpu / gpu / transfer / codec / other."""
        total = self.total_seconds or 1.0
        cpu = self.cpu_seconds / total
        gpu = self.gpu_seconds / total
        transfer = self.transfer_seconds / total
        codec = self.codec_seconds / total
        return {
            "cpu": cpu,
            "gpu": min(gpu, 1.0),
            "transfer": transfer,
            "codec": codec,
            "other": max(0.0, 1.0 - cpu - min(gpu, 1.0) - transfer - codec),
        }


class TimedExecutor:
    """Executes circuits against one machine model.

    Args:
        machine: Target machine.
        chunk_bits: Within-chunk qubits (default: Aer's 2^21 amplitudes).

    The timeline is fault-free, as every timing in the paper is: fault
    injection and recovery act on the functional engine only.
    """

    def __init__(
        self, machine: Machine, chunk_bits: int = DEFAULT_CHUNK_BITS
    ) -> None:
        self.machine = machine
        self.chunk_bits = chunk_bits

    # -- public API ---------------------------------------------------------

    def execute(
        self,
        circuit: QuantumCircuit,
        version: VersionConfig,
        compression_ratio: float = 1.0,
    ) -> TimedResult:
        """Model the execution of ``circuit`` under ``version``.

        Args:
            circuit: Circuit to execute (reordering is applied here when the
                version calls for it).
            version: Execution version (see :mod:`repro.core.versions`).
            compression_ratio: Measured GFC compressed/uncompressed ratio
                for this circuit's family; only used when
                ``version.compression`` is set.

        Raises:
            SimulationError: When the state vector exceeds host memory (the
                same failure the paper reports for hchain_34/qaoa_32 on the
                A100 server).
        """
        n = circuit.num_qubits
        state_bytes = AMP_BYTES << n
        if not self.machine.fits_in_host(state_bytes):
            raise SimulationError(
                f"{circuit.name}: state vector needs "
                f"{state_bytes / 2**30:.0f} GiB but host has "
                f"{self.machine.spec.host_memory_bytes / 2**30:.0f} GiB"
            )
        if not 0.0 < compression_ratio <= 1.0:
            raise SimulationError(
                f"compression ratio must be in (0, 1], got {compression_ratio}"
            )

        ops = list(reorder(circuit, version.reorder_strategy))
        result = TimedResult(
            circuit_name=circuit.name,
            version=version.name,
            machine=self.machine.spec.name,
            num_qubits=n,
        )
        if version.dynamic_allocation:
            self._execute_streaming(ops, n, version, compression_ratio, result)
        else:
            self._execute_static(ops, n, result)
        return result

    # -- static baseline ------------------------------------------------------

    def _effective_chunk_bits(self, n: int) -> int:
        """Chunk size: Aer's default, grown so chunk count stays bounded."""
        bits = max(self.chunk_bits, n - MAX_CHUNK_COUNT_BITS)
        return min(bits, n)

    @staticmethod
    def _static_split(
        outside: tuple[int, ...],
        indices: np.ndarray,
        gpu_chunks: int,
        cpu_chunks: int,
        chunk_amps: int,
    ) -> tuple[int, int, int]:
        """``(gpu_amps, cpu_amps, moved_chunks)`` of a gate whose qubits
        above the chunk boundary are ``outside`` (chunk-index bits)."""
        if not outside:
            # Case 1: every chunk updates where it lives.
            return gpu_chunks * chunk_amps, cpu_chunks * chunk_amps, 0
        outside_mask = 0
        for bit in outside:
            outside_mask |= 1 << bit
        bases = indices[(indices & outside_mask) == 0]
        selectors = np.zeros(1 << len(outside), dtype=np.int64)
        for position, bit in enumerate(outside):
            selectors |= (
                (np.arange(1 << len(outside)) >> position & 1) << bit
            )
        members = bases[:, None] | selectors[None, :]
        on_gpu = members < gpu_chunks
        gpu_members = on_gpu.sum(axis=1)
        group_size = members.shape[1]
        all_cpu = int((gpu_members == 0).sum())
        all_gpu = int((gpu_members == group_size).sum())
        mixed = members.shape[0] - all_cpu - all_gpu
        moved_chunks = int(
            (~on_gpu[(gpu_members > 0) & (gpu_members < group_size)]).sum()
        )
        gpu_amps = (all_gpu + mixed) * group_size * chunk_amps
        cpu_amps = all_cpu * group_size * chunk_amps
        return gpu_amps, cpu_amps, moved_chunks

    def _execute_static(self, ops: list, n: int, result: TimedResult) -> None:
        machine = self.machine
        state_bytes = AMP_BYTES << n
        capacity = machine.total_gpu_capacity_bytes()
        num_gpus = machine.num_gpus

        if state_bytes <= capacity:
            self._execute_resident(ops, n, result)
            return

        m = self._effective_chunk_bits(n)
        chunk_bytes = AMP_BYTES << m
        chunk_amps = 1 << m
        num_chunks = 1 << (n - m)
        gpu_chunks = min(num_chunks, capacity // chunk_bytes)
        cpu_chunks = num_chunks - gpu_chunks
        indices = np.arange(num_chunks, dtype=np.int64)
        # The chunk-group split depends only on which bits above the chunk
        # boundary a gate touches, so each pattern is derived once.
        splits: dict[tuple[int, ...], tuple[int, int, int]] = {}

        for index, gate in enumerate(ops):
            outside = tuple(sorted(q - m for q in gate.qubits if q >= m))
            split = splits.get(outside)
            if split is None:
                split = splits[outside] = self._static_split(
                    outside, indices, gpu_chunks, cpu_chunks, chunk_amps
                )
            gpu_amps, cpu_amps, moved_chunks = split

            diagonal = gate.is_diagonal
            k = gate.num_qubits
            gpu_time = (
                machine.gpu_compute_time(gpu_amps / num_gpus, k, diagonal)
                if gpu_amps
                else 0.0
            )
            cpu_time = machine.cpu_compute_time(cpu_amps, chunked=True)
            moved_bytes = moved_chunks * chunk_bytes
            # Reactive exchange: H2D, update, D2H serialise; the GPU is
            # full under static allocation, so staging a CPU chunk first
            # evicts a resident one (doubling the traffic), and every
            # exchanged chunk pays a host-side synchronisation.  With
            # multiple GPUs the moved chunks split across per-GPU links.
            transfer_time = (
                2 * REACTIVE_STAGING_FACTOR
                * machine.transfer_time(moved_bytes / num_gpus, num_transfers=moved_chunks)
                + moved_chunks * REACTIVE_SYNC_SECONDS
            )
            result.add(
                GateTiming(
                    index=index,
                    name=gate.name,
                    seconds=cpu_time + gpu_time + transfer_time,
                    cpu_seconds=cpu_time,
                    gpu_seconds=gpu_time,
                    transfer_seconds=transfer_time,
                    bytes_h2d=moved_bytes,
                    bytes_d2h=moved_bytes,
                )
            )
            result.gpu_flops += machine.gate_flops(gpu_amps, k, diagonal)
            result.gpu_bytes_touched += 2 * AMP_BYTES * gpu_amps

        # Terminal measurement: the GPU-resident fraction returns to host.
        final_bytes = gpu_chunks * chunk_bytes
        final_time = self.machine.transfer_time(final_bytes / num_gpus, 1)
        result.add(
            GateTiming(
                index=len(ops),
                name="<readout>",
                seconds=final_time,
                transfer_seconds=final_time,
                bytes_d2h=final_bytes,
            )
        )

    # -- GPU-resident fast path ------------------------------------------------

    def _execute_resident(self, ops: list, n: int, result: TimedResult) -> None:
        """Whole state in GPU memory: compute only, plus terminal readout."""
        machine = self.machine
        amps = 1 << n
        num_gpus = machine.num_gpus
        for index, gate in enumerate(ops):
            gpu_time = machine.gpu_compute_time(
                amps / num_gpus, gate.num_qubits, gate.is_diagonal
            )
            result.add(
                GateTiming(index=index, name=gate.name, seconds=gpu_time,
                           gpu_seconds=gpu_time)
            )
            result.gpu_flops += machine.gate_flops(amps, gate.num_qubits, gate.is_diagonal)
            result.gpu_bytes_touched += 2 * AMP_BYTES * amps
        final_bytes = AMP_BYTES * amps
        final_time = machine.transfer_time(final_bytes / num_gpus, 1)
        result.add(
            GateTiming(
                index=len(ops), name="<readout>", seconds=final_time,
                transfer_seconds=final_time, bytes_d2h=final_bytes,
            )
        )

    # -- dynamic streaming versions ---------------------------------------------

    def _execute_streaming(
        self,
        ops: list,
        n: int,
        version: VersionConfig,
        compression_ratio: float,
        result: TimedResult,
    ) -> None:
        machine = self.machine
        num_gpus = machine.num_gpus
        capacity = machine.gpu_capacity_bytes()
        total_capacity = machine.total_gpu_capacity_bytes()
        # Overlapped streaming halves each GPU's buffer; naive streaming
        # fills the whole device per batch.
        buffer_bytes = capacity // 2 if version.overlap else capacity
        ratio = compression_ratio if version.compression else 1.0
        tracker = LiveTracker(n, version.pruning)
        chunk_bits = self._effective_chunk_bits(n)
        link_bw = machine.spec.link.bandwidth_per_direction
        latency = machine.spec.link.latency
        # The paper's design streams live chunks from host memory on every
        # gate (circular buffers, Fig. 5/6); only a state vector that fits
        # entirely in device memory stays resident.
        whole_state_resident = (AMP_BYTES << n) <= total_capacity
        resident_live_bytes = 0.0
        # A gate's record depends only on its class - the amplitudes it
        # touches, the DMA runs they span, its width and whether it is
        # diagonal - so each class is priced once and its record replayed,
        # adding the same floats in the same order.
        prices: dict[tuple[int, int, int, bool], tuple[float, GateTiming]] = {}

        for gate, index, touched in live_schedule(ops, tracker):
            live_amps = touched  # amplitudes; ROADMAP item 12 prices whole live chunks
            # Live chunks are contiguous in host memory only while the free
            # chunk-index bits form a low run; otherwise each maximal run
            # needs its own DMA, adding per-copy latency.
            high_bits = tracker.free >> chunk_bits
            trailing = (~high_bits & (high_bits + 1)).bit_length() - 1
            copy_runs = 1 << max(0, high_bits.bit_count() - trailing)
            live_bytes = AMP_BYTES * live_amps
            if whole_state_resident:
                resident_live_bytes = live_bytes
            k = gate.num_qubits
            diagonal = gate.is_diagonal
            key = (live_amps, copy_runs, k, diagonal)
            if key in prices:
                flops, priced = prices[key]
                result.gpu_flops += flops
                result.gpu_bytes_touched += 2 * AMP_BYTES * live_amps
                result.add(
                    GateTiming(**vars(priced) | {"index": index, "name": gate.name})
                )
                continue
            live_fraction = live_amps / (1 << n)
            kernel_time = machine.gpu_compute_time(live_amps / num_gpus, k, diagonal)
            flops = machine.gate_flops(live_amps, k, diagonal)
            result.gpu_flops += flops
            result.gpu_bytes_touched += 2 * AMP_BYTES * live_amps

            if whole_state_resident:
                # Resident across GPUs; newly live chunks are zero-filled
                # on device (cudaMemset), so nothing moves.
                timing = GateTiming(
                    index=index, name=gate.name, seconds=kernel_time,
                    gpu_seconds=kernel_time, live_fraction=live_fraction,
                )
            else:
                per_gpu_bytes = live_bytes / num_gpus
                batches = max(1, math.ceil(per_gpu_bytes / buffer_bytes))
                batch_bytes = per_gpu_bytes / batches
                stream_bytes = batch_bytes * ratio
                copies_per_batch = max(1.0, copy_runs / num_gpus / batches)
                codec_per_batch = (
                    machine.codec_time(2 * batch_bytes) if version.compression else 0.0
                )
                stage = StageTimes(
                    h2d=stream_bytes / link_bw + latency * copies_per_batch,
                    compute=kernel_time / batches + codec_per_batch,
                    d2h=stream_bytes / link_bw + latency * copies_per_batch,
                )
                if version.overlap:
                    seconds = double_buffered_roundtrip(batches, stage)
                else:
                    seconds = serial_roundtrip(batches, stage)
                timing = GateTiming(
                    index=index,
                    name=gate.name,
                    seconds=seconds,
                    gpu_seconds=kernel_time,
                    transfer_seconds=max(0.0, seconds - batches * stage.compute),
                    codec_seconds=batches * codec_per_batch,
                    bytes_h2d=stream_bytes * batches * num_gpus,
                    bytes_d2h=stream_bytes * batches * num_gpus,
                    live_fraction=live_fraction,
                )
            prices[key] = flops, timing
            result.add(timing)

        if resident_live_bytes:
            # Terminal readout of the still-resident live set.
            final_time = machine.transfer_time(resident_live_bytes / num_gpus, 1)
            result.add(
                GateTiming(
                    index=len(ops), name="<readout>", seconds=final_time,
                    transfer_seconds=final_time, bytes_d2h=resident_live_bytes,
                )
            )
