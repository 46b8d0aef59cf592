"""Roofline placement: modelled GPU runs (Fig. 15) and measured kernels.

A roofline places work at ``(arithmetic intensity, achieved throughput)``
under a device ceiling.  This module holds both sides of that picture.

**Modelled** (paper Fig. 15, Section V-B): :func:`roofline_point` places
one timed run at ``(GPU FLOPs per DRAM byte, achieved FLOPS)`` under
:func:`roofline_ceiling`, ``min(peak FLOPS, AI x memory bandwidth)``.
The paper's observations to reproduce:

* QCS is memory-bound (every point sits under the bandwidth slope),
* runs that fit in GPU memory (<= 29 qubits) achieve FLOPS near the
  bandwidth-bound ceiling,
* beyond GPU memory the Baseline collapses to very low FLOPS, the Naive
  version recovers some, and Q-GPU achieves far more.

**Measured**: the chunk engine accumulates, per kernel kind, the
amplitudes touched, the bytes moved under the DES cost model's
read+write convention (``2 * itemsize * amps`` - see
:meth:`repro.statevector.chunks.ChunkedStateVector.sweep`), and the wall
seconds of every sweep.  From those three counters -
``kernel_amps.<kind>`` / ``kernel_bytes.<kind>`` /
``kernel_seconds.<kind>``, present in every metrics export and embedded
in every trace's counter metadata - :func:`kernel_rooflines` derives each
kind's achieved amps/s and bytes/amp, and places the achieved bandwidth
against a machine bound, so ``trace analyze --roofline`` can report
"diagonal at 74% of the bandwidth bound".

The measured bound defaults to the *CPU* effective bandwidth of the
chosen :class:`~repro.hardware.specs.MachineSpec` - the functional
engines run on the host, and the DES model uses the same number to cost
the CPU version - keeping measured efficiency directly comparable with
the model's predictions.

The timing and device types are annotations only, so this module
imports nothing of :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping

if TYPE_CHECKING:
    from repro.core.executor import TimedResult
    from repro.hardware.specs import GpuSpec


# -- the modelled side (Fig. 15) ------------------------------------------------


@dataclass(frozen=True)
class RooflinePoint:
    """One run in roofline coordinates.

    Attributes:
        label: Display label (e.g. ``"qft_32/Baseline"``).
        arithmetic_intensity: GPU FLOPs per GPU DRAM byte.
        achieved_flops: GPU FLOPs divided by *total* execution seconds
            (application-level throughput, as the paper plots).
        ceiling_flops: Device ceiling at this intensity.
    """

    label: str
    arithmetic_intensity: float
    achieved_flops: float
    ceiling_flops: float

    @property
    def efficiency(self) -> float:
        """Achieved fraction of the roofline ceiling."""
        if self.ceiling_flops == 0:
            return 0.0
        return self.achieved_flops / self.ceiling_flops

    @property
    def memory_bound(self) -> bool:
        """True when the bandwidth slope (not peak FLOPS) is the ceiling."""
        return self.achieved_flops <= self.ceiling_flops


def roofline_ceiling(gpu: GpuSpec, arithmetic_intensity: float) -> float:
    """``min(peak, AI x bandwidth)`` for one device."""
    return min(gpu.fp64_flops, arithmetic_intensity * gpu.mem_bandwidth)


def roofline_point(result: TimedResult, gpu: GpuSpec) -> RooflinePoint:
    """Place one timed run on the device's roofline."""
    if result.gpu_bytes_touched > 0:
        intensity = result.gpu_flops / result.gpu_bytes_touched
    else:
        intensity = 0.0
    achieved = (
        result.gpu_flops / result.total_seconds if result.total_seconds else 0.0
    )
    return RooflinePoint(
        label=f"{result.circuit_name}/{result.version}",
        arithmetic_intensity=intensity,
        achieved_flops=achieved,
        ceiling_flops=roofline_ceiling(gpu, intensity),
    )


# -- the measured side (kernel counters) ----------------------------------------

#: Counter prefixes the chunk engines accumulate per kernel kind.
_AMPS_PREFIX = "kernel_amps."
_BYTES_PREFIX = "kernel_bytes."
_SECONDS_PREFIX = "kernel_seconds."
_CALLS_PREFIX = "kernels."


@dataclass(frozen=True)
class KernelRoofline:
    """Measured roofline placement of one kernel kind.

    Attributes:
        kind: Kernel kind (``diagonal`` or ``dense``).
        calls: Sweeps recorded (``kernels.<kind>``, one per applied op).
        amps: Total amplitudes touched.
        bytes: Total bytes moved (DES convention: read + write per amp).
        seconds: Total wall seconds across dispatches.
        bound_bandwidth: The machine bandwidth bound, bytes/s.
    """

    kind: str
    calls: float
    amps: float
    bytes: float
    seconds: float
    bound_bandwidth: float

    @property
    def amps_per_second(self) -> float:
        """Achieved amplitude throughput (amps/s)."""
        return self.amps / self.seconds if self.seconds > 0 else 0.0

    @property
    def bytes_per_amp(self) -> float:
        """Modelled traffic per amplitude (2x itemsize by construction)."""
        return self.bytes / self.amps if self.amps > 0 else 0.0

    @property
    def achieved_bandwidth(self) -> float:
        """Achieved bandwidth (bytes/s) under the model's byte convention."""
        return self.bytes / self.seconds if self.seconds > 0 else 0.0

    @property
    def efficiency(self) -> float:
        """Achieved fraction of the bandwidth bound."""
        if self.bound_bandwidth <= 0:
            return 0.0
        return self.achieved_bandwidth / self.bound_bandwidth


def kernel_rooflines(
    counters: Mapping[str, Any], bandwidth: float
) -> list[KernelRoofline]:
    """Per-kernel-kind roofline rows from a flat counter snapshot.

    Args:
        counters: A counter snapshot - ``tracer.counters.snapshot()``, a
            metrics JSON's ``"counters"`` object, or the snapshot read
            back off a trace's metadata
            (:func:`~repro.obs.export.trace_counters_snapshot`).
        bandwidth: Bandwidth bound in bytes/s (normally the machine's
            ``cpu.effective_bandwidth``).

    Returns:
        One row per kind that recorded any timed work, sorted by
        descending seconds (the dominant kernel first).  Kinds with
        invocation counts but no timed work (e.g. ``fused_slab``, a
        structural marker) are skipped.
    """
    kinds = sorted(
        {
            name[len(_SECONDS_PREFIX):]
            for name in counters
            if name.startswith(_SECONDS_PREFIX)
        }
    )
    rows = [
        KernelRoofline(
            kind=kind,
            calls=float(counters.get(_CALLS_PREFIX + kind, 0)),
            amps=float(counters.get(_AMPS_PREFIX + kind, 0)),
            bytes=float(counters.get(_BYTES_PREFIX + kind, 0)),
            seconds=float(counters.get(_SECONDS_PREFIX + kind, 0)),
            bound_bandwidth=float(bandwidth),
        )
        for kind in kinds
    ]
    return sorted(rows, key=lambda row: (-row.seconds, row.kind))


def render_kernel_rooflines(rows: Iterable[KernelRoofline]) -> str:
    """The per-kernel table ``trace analyze --roofline`` prints."""
    rows = list(rows)
    if not rows:
        return (
            "no timed kernel work in this trace (re-record a functional "
            "run with a wall clock: logical-clock traces stay "
            "byte-reproducible by skipping wall seconds)"
        )
    lines = [
        f"{'kernel':<14} {'calls':>8} {'Mamps/s':>10} {'B/amp':>7} "
        f"{'GB/s':>8} {'bound GB/s':>11} {'of bound':>9}"
    ]
    for row in rows:
        lines.append(
            f"{row.kind:<14} {row.calls:>8.0f} "
            f"{row.amps_per_second / 1e6:>10.1f} {row.bytes_per_amp:>7.1f} "
            f"{row.achieved_bandwidth / 1e9:>8.2f} "
            f"{row.bound_bandwidth / 1e9:>11.2f} {row.efficiency:>8.1%}"
        )
    top = rows[0]
    lines.append(
        f"dominant kernel: {top.kind} at {top.efficiency:.0%} of the "
        f"bandwidth bound ({top.achieved_bandwidth / 1e9:.2f} of "
        f"{top.bound_bandwidth / 1e9:.2f} GB/s)"
    )
    return "\n".join(lines)


def rooflines_payload(rows: Iterable[KernelRoofline]) -> list[dict[str, Any]]:
    """JSON-safe dicts for ``--json`` output, same order as ``rows``."""
    return [
        {
            "kind": row.kind,
            "calls": row.calls,
            "amps": row.amps,
            "bytes": row.bytes,
            "seconds": row.seconds,
            "amps_per_second": row.amps_per_second,
            "bytes_per_amp": row.bytes_per_amp,
            "achieved_bandwidth": row.achieved_bandwidth,
            "bound_bandwidth": row.bound_bandwidth,
            "efficiency": row.efficiency,
        }
        for row in rows
    ]
