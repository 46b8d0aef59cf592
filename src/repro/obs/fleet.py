"""Fleet analytics: per-device busy/idle, link utilization, comm matrix.

:mod:`repro.obs.analyze` answers "where did the time go" for one execution
stream; this module answers the multi-GPU questions of the paper's Fig. 19
(and the scale-out roadmap item): which *device* did the work, which *link*
carried the bytes, and how uneven the fleet was.  It consumes the same
plain :class:`~repro.obs.tracer.Span` lists - typically a multi-device DES
trace re-parsed by :func:`repro.obs.export.spans_from_events`, whose spans
carry the executor's ``meta`` annotations (device, link id, bytes) in
``attrs`` - and derives:

* per-device **busy/idle** time (union of that device's lane intervals)
  plus a per-stage split that reconciles exactly with the aggregate
  :func:`~repro.obs.analyze.stage_rollups` over the same spans;
* the **load-imbalance** metric ``max(busy) / mean(busy)`` (1.0 = perfectly
  balanced fleet);
* the device-to-device **communication matrix** in bytes.  Summed, it must
  equal the executor's own transfer accounting *exactly* - byte counts are
  integers, so float64 addition is exact and the identity is checkable
  with ``==`` (the fleet-smoke CI job does);
* per-**link** byte totals, busy time, and a bucketed utilization
  timeline;
* the cross-lane critical path and overlap efficiency, reusing
  :mod:`repro.obs.analyze` unchanged - device lanes are just lanes.

The result renders as the ``trace analyze --fleet`` report and exports as
JSON via :meth:`FleetAnalysis.to_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.hardware.topology import HOST
from repro.obs.analyze import (
    CriticalPath,
    OverlapStats,
    _merge_intervals,
    critical_path,
    overlap_stats,
    stage_rollups,
)
from repro.obs.tracer import DES_RESOURCE_STAGES, Span, device_for_resource

#: Device label for single-device DES traces, whose resources carry no
#: ``gpu{d}:`` namespace.
DEFAULT_DEVICE = "gpu0"

#: Buckets in each link's utilization timeline.
DEFAULT_BUCKETS = 20


def span_device(span: Span) -> str | None:
    """The device a span ran on, or None for non-device work.

    Prefers the explicit ``device`` attribute the DES exporter writes,
    falls back to the lane's resource namespace, and maps the legacy
    un-namespaced single-device resources to :data:`DEFAULT_DEVICE`.
    """
    device = span.attrs.get("device")
    if isinstance(device, str) and device:
        return device
    device = device_for_resource(span.lane)
    if device is not None:
        return device
    if span.lane in DES_RESOURCE_STAGES:
        return DEFAULT_DEVICE
    return None


@dataclass
class DeviceStats:
    """Busy/idle accounting of one device across all its lanes.

    ``busy`` is the union of the device's span intervals (a device with
    overlapped copy and compute is busy once, not twice); ``stages`` is
    the per-stage span-time split, which double-counts that overlap by
    design so the fleet-wide stage sums reconcile with
    :func:`~repro.obs.analyze.stage_rollups`.
    """

    device: str
    busy: float = 0.0
    idle: float = 0.0
    stages: dict[str, float] = field(default_factory=dict)
    spans: int = 0


@dataclass
class LinkStats:
    """Traffic and occupancy of one interconnect link."""

    link_id: str
    bytes_total: float = 0.0
    transfers: int = 0
    busy: float = 0.0
    utilization: float = 0.0
    timeline: list[float] = field(default_factory=list)


@dataclass
class FleetAnalysis:
    """Everything :func:`fleet_analysis` derives from one span list."""

    wall: float = 0.0
    span_count: int = 0
    devices: list[DeviceStats] = field(default_factory=list)
    links: list[LinkStats] = field(default_factory=list)
    comm_matrix: dict[str, dict[str, float]] = field(default_factory=dict)
    total_bytes: float = 0.0
    imbalance: float = 0.0
    rollup_totals: dict[str, float] = field(default_factory=dict)
    overlap: OverlapStats = field(default_factory=OverlapStats)
    critical: CriticalPath = field(default_factory=CriticalPath)

    def device(self, name: str) -> DeviceStats | None:
        for stats in self.devices:
            if stats.device == name:
                return stats
        return None

    def to_dict(self) -> dict[str, Any]:
        return {
            "wall": self.wall,
            "span_count": self.span_count,
            "devices": [
                {
                    "device": d.device,
                    "busy": d.busy,
                    "idle": d.idle,
                    "stages": dict(d.stages),
                    "spans": d.spans,
                }
                for d in self.devices
            ],
            "links": [
                {
                    "link": link.link_id,
                    "bytes": link.bytes_total,
                    "transfers": link.transfers,
                    "busy": link.busy,
                    "utilization": link.utilization,
                    "timeline": list(link.timeline),
                }
                for link in self.links
            ],
            "comm_matrix": {
                src: dict(row) for src, row in self.comm_matrix.items()
            },
            "total_bytes": self.total_bytes,
            "imbalance": self.imbalance,
            "stage_totals": dict(self.rollup_totals),
            "overlap": {
                "transfer": self.overlap.transfer,
                "hidden": self.overlap.hidden,
                "exposed": self.overlap.exposed,
                "efficiency": self.overlap.efficiency,
            },
            "critical_path": {
                "duration": self.critical.duration,
                "stage_totals": self.critical.stage_totals(),
            },
        }


def _bucket_fractions(
    intervals: list[tuple[float, float]],
    start: float,
    end: float,
    buckets: int,
) -> list[float]:
    """Busy fraction of each of ``buckets`` equal slices of [start, end]."""
    if buckets <= 0 or end <= start:
        return []
    width = (end - start) / buckets
    fractions = []
    for position in range(buckets):
        lo = start + position * width
        hi = lo + width
        covered = sum(
            min(hi, s_end) - max(lo, s_start)
            for s_start, s_end in intervals
            if s_end > lo and s_start < hi
        )
        fractions.append(covered / width)
    return fractions


def _span_endpoints(span: Span, device: str) -> tuple[str, str] | None:
    """(src, dst) endpoints of a transfer span.

    Explicit ``src``/``dst`` attributes win; without them the stage
    implies the direction (``h2d``: host to device, ``d2h``: back).
    """
    src, dst = span.attrs.get("src"), span.attrs.get("dst")
    if isinstance(src, str) and isinstance(dst, str):
        return src, dst
    if span.stage == "h2d":
        return HOST, device
    if span.stage == "d2h":
        return device, HOST
    return None


def fleet_analysis(
    spans: list[Span], buckets: int = DEFAULT_BUCKETS
) -> FleetAnalysis:
    """Derive the fleet view of a span list (all-empty for no spans)."""
    if not spans:
        return FleetAnalysis()
    start = min(span.start for span in spans)
    end = max(span.end for span in spans)
    wall = end - start

    device_intervals: dict[str, list[tuple[float, float]]] = {}
    device_stats: dict[str, DeviceStats] = {}
    link_stats: dict[str, LinkStats] = {}
    link_intervals: dict[str, list[tuple[float, float]]] = {}
    comm: dict[str, dict[str, float]] = {}
    total_bytes = 0.0

    for span in spans:
        device = span_device(span)
        if device is None:
            continue
        stats = device_stats.setdefault(device, DeviceStats(device))
        stats.spans += 1
        if span.stage is not None:
            stats.stages[span.stage] = (
                stats.stages.get(span.stage, 0.0) + span.duration
            )
        if span.end > span.start:
            device_intervals.setdefault(device, []).append(
                (span.start, span.end)
            )
        moved = span.attrs.get("bytes")
        if span.stage in ("h2d", "d2h") and isinstance(moved, (int, float)):
            endpoints = _span_endpoints(span, device)
            if endpoints is not None:
                src, dst = endpoints
                comm.setdefault(src, {})[dst] = (
                    comm.get(src, {}).get(dst, 0.0) + moved
                )
                total_bytes += moved
            link_id = span.attrs.get("link")
            if isinstance(link_id, str) and link_id:
                link = link_stats.setdefault(link_id, LinkStats(link_id))
                link.bytes_total += moved
                link.transfers += 1
                if span.end > span.start:
                    link_intervals.setdefault(link_id, []).append(
                        (span.start, span.end)
                    )

    for device, stats in device_stats.items():
        merged = _merge_intervals(device_intervals.get(device, []))
        stats.busy = sum(hi - lo for lo, hi in merged)
        stats.idle = max(0.0, wall - stats.busy)

    for link_id, link in link_stats.items():
        merged = _merge_intervals(link_intervals.get(link_id, []))
        link.busy = sum(hi - lo for lo, hi in merged)
        link.utilization = link.busy / wall if wall > 0 else 0.0
        link.timeline = _bucket_fractions(merged, start, end, buckets)

    busies = [stats.busy for stats in device_stats.values()]
    mean_busy = sum(busies) / len(busies) if busies else 0.0
    imbalance = max(busies) / mean_busy if mean_busy > 0 else 0.0

    rollups = stage_rollups(spans)
    return FleetAnalysis(
        wall=wall,
        span_count=len(spans),
        devices=[device_stats[name] for name in sorted(device_stats)],
        links=[link_stats[name] for name in sorted(link_stats)],
        comm_matrix={src: dict(row) for src, row in sorted(comm.items())},
        total_bytes=total_bytes,
        imbalance=imbalance,
        rollup_totals={
            stage: rollup.total for stage, rollup in rollups.items()
        },
        overlap=overlap_stats(spans),
        critical=critical_path(spans),
    )


def _spark(fractions: list[float]) -> str:
    """Eight-level unicode sparkline of a utilization timeline."""
    blocks = " ▁▂▃▄▅▆▇█"
    return "".join(
        blocks[min(len(blocks) - 1, int(f * (len(blocks) - 1) + 0.5))]
        for f in fractions
    )


def render_fleet(analysis: FleetAnalysis, unit: str = "s") -> str:
    """Human-readable report for ``trace analyze --fleet``."""
    if analysis.span_count == 0:
        return "empty trace: 0 spans, nothing to analyze"
    wall = analysis.wall or 1.0
    lines = [
        f"fleet: {len(analysis.devices)} device(s), "
        f"{len(analysis.links)} link(s), wall {analysis.wall:.6g} {unit}",
        "",
        f"{'device':<10} {'busy ' + unit:>14} {'idle ' + unit:>14} "
        f"{'busy%':>7} {'spans':>7}",
    ]
    for stats in analysis.devices:
        lines.append(
            f"{stats.device:<10} {stats.busy:>14.6g} {stats.idle:>14.6g} "
            f"{stats.busy / wall:>6.1%} {stats.spans:>7}"
        )
    lines.append(
        f"load imbalance (max/mean busy): {analysis.imbalance:.4f}"
        + ("  (balanced)" if 0 < analysis.imbalance <= 1.02 else "")
    )
    # Reconciliation: fleet stage sums vs the aggregate rollup.
    device_stage_totals: dict[str, float] = {}
    for stats in analysis.devices:
        for stage, total in stats.stages.items():
            device_stage_totals[stage] = (
                device_stage_totals.get(stage, 0.0) + total
            )
    drift = max(
        (
            abs(device_stage_totals.get(stage, 0.0) - total)
            for stage, total in analysis.rollup_totals.items()
        ),
        default=0.0,
    )
    lines.append(
        f"stage reconciliation vs aggregate rollup: max drift {drift:.3g} {unit}"
    )
    if analysis.links:
        lines.append("")
        lines.append(
            f"{'link':<24} {'bytes':>14} {'xfers':>7} {'util':>7}  timeline"
        )
        for link in analysis.links:
            lines.append(
                f"{link.link_id:<24} {link.bytes_total:>14.6g} "
                f"{link.transfers:>7} {link.utilization:>6.1%}  "
                f"|{_spark(link.timeline)}|"
            )
    if analysis.comm_matrix:
        lines.append("")
        lines.append(
            f"communication matrix (bytes, total {analysis.total_bytes:.6g}):"
        )
        endpoints = sorted(
            {HOST}
            | set(analysis.comm_matrix)
            | {dst for row in analysis.comm_matrix.values() for dst in row},
            key=lambda name: (name != HOST, name),
        )
        header = " ".join(f"{dst:>12}" for dst in endpoints)
        corner = "src\\dst"
        lines.append(f"  {corner:<10} {header}")
        for src in endpoints:
            row = analysis.comm_matrix.get(src, {})
            cells = " ".join(f"{row.get(dst, 0.0):>12.6g}" for dst in endpoints)
            lines.append(f"  {src:<10} {cells}")
    efficiency = analysis.overlap.efficiency
    lines.append("")
    if efficiency is None:
        lines.append("overlap efficiency: n/a (no transfer spans in trace)")
    else:
        lines.append(
            f"overlap efficiency: {efficiency:.3f} "
            f"(hidden {analysis.overlap.hidden:.6g} of "
            f"{analysis.overlap.transfer:.6g} {unit} transfer)"
        )
    if analysis.critical.segments:
        totals = analysis.critical.stage_totals()
        top = sorted(totals.items(), key=lambda kv: -kv[1])[:3]
        described = ", ".join(f"{stage} {total:.6g}" for stage, total in top)
        lines.append(
            f"critical path: {analysis.critical.duration:.6g} {unit} "
            f"({described})"
        )
    return "\n".join(lines)
