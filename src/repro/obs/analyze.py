"""Trace analytics: rollups, critical path, overlap efficiency, bottlenecks.

PR 4's tracer answers "what happened"; this module answers the questions
the paper's figures ask of a trace:

* :func:`stage_rollups` - per-stage **self** and **total** time (Fig. 2/4:
  where does the wall time go, with and without double-counting nesting);
* :func:`critical_path` - the longest dependency chain through the span
  tree, crossing lanes via cross-thread parenting (which worker-lane work
  actually gated the run, and which merely ran in parallel).  The returned
  segments tile the root interval exactly, so the per-stage attribution of
  the critical path sums to the root duration by construction;
* :func:`overlap_stats` - the Fig. 6 claim as a number: the fraction of
  ``h2d``/``d2h`` transfer time hidden under ``compute`` spans running on
  *other* lanes (same-lane nesting is serialisation, not overlap);
* :func:`top_bottlenecks` - top-k attribution by aggregated self time.

Everything consumes the plain :class:`~repro.obs.tracer.Span` list, so it
works on live tracers, re-parsed ``*.trace.json`` files, and the DES
model's stream-schedule exports (flat, parentless spans - they are hung
off a virtual root spanning the trace extent).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any

from repro.obs.tracer import STAGES, Span

#: Stage label for critical-path time spent in structural (stage-less)
#: spans or in gaps between top-level spans.
UNATTRIBUTED = "(untraced)"

#: Transfer stages considered by the overlap metric.
TRANSFER_STAGES = ("h2d", "d2h")


# -- per-stage rollups ---------------------------------------------------------


@dataclass
class StageRollup:
    """Self/total time and span count of one taxonomy stage.

    ``total`` double-counts nested same-stage spans (a parent's interval
    includes its children); ``self`` subtracts direct children, so self
    times across stages partition the traced time exactly.
    """

    stage: str
    total: float = 0.0
    self_time: float = 0.0
    count: int = 0


def stage_rollups(spans: list[Span]) -> dict[str, StageRollup]:
    """Per-stage self/total rollups, in taxonomy order (observed stages only)."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    rollups: dict[str, StageRollup] = {}
    for span in spans:
        if span.stage is None:
            continue
        rollup = rollups.setdefault(span.stage, StageRollup(span.stage))
        rollup.total += span.duration
        rollup.self_time += span.duration - child_time.get(span.index, 0.0)
        rollup.count += 1
    order = {stage: position for position, stage in enumerate(STAGES)}
    return dict(
        sorted(rollups.items(), key=lambda kv: order.get(kv[0], len(order)))
    )


# -- critical path -------------------------------------------------------------


@dataclass
class CriticalSegment:
    """One stretch of the critical path, attributed to a single span.

    ``span_index`` is None for virtual-root segments (gaps between
    top-level spans in a flat trace).
    """

    span_index: int | None
    name: str
    stage: str | None
    lane: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """The critical path of one trace: segments tiling the root interval.

    Attributes:
        segments: Time-ordered segments; consecutive segments abut, the
            first starts at ``root_start`` and the last ends at
            ``root_end``, so ``sum(durations) == duration`` exactly.
        root_name: Name of the root span (``"<trace>"`` for the virtual
            root of a flat or multi-root trace).
        root_start / root_end: The tiled interval.
    """

    segments: list[CriticalSegment] = field(default_factory=list)
    root_name: str = "<trace>"
    root_start: float = 0.0
    root_end: float = 0.0

    @property
    def duration(self) -> float:
        return self.root_end - self.root_start

    def stage_totals(self) -> dict[str, float]:
        """Critical-path seconds per stage (:data:`UNATTRIBUTED` for none).

        Because the segments tile the root interval, these totals sum to
        :attr:`duration` exactly - the identity the CLI reports.
        """
        totals: dict[str, float] = {}
        for segment in self.segments:
            stage = segment.stage if segment.stage is not None else UNATTRIBUTED
            totals[stage] = totals.get(stage, 0.0) + segment.duration
        order = {stage: position for position, stage in enumerate(STAGES)}
        return dict(
            sorted(totals.items(), key=lambda kv: order.get(kv[0], len(order)))
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "root": self.root_name,
            "start": self.root_start,
            "end": self.root_end,
            "duration": self.duration,
            "stage_totals": self.stage_totals(),
            "segments": [
                {
                    "span": segment.span_index,
                    "name": segment.name,
                    "stage": segment.stage,
                    "lane": segment.lane,
                    "start": segment.start,
                    "end": segment.end,
                    "duration": segment.duration,
                }
                for segment in self.segments
            ],
        }


def _children_by_parent(spans: list[Span]) -> tuple[dict[int | None, list[Span]], list[Span]]:
    """Index spans by parent; unresolvable parents become roots (defensive)."""
    by_index = {span.index: span for span in spans}
    children: dict[int | None, list[Span]] = {}
    roots: list[Span] = []
    for span in spans:
        if span.parent is not None and span.parent in by_index:
            children.setdefault(span.parent, []).append(span)
        else:
            roots.append(span)
    return children, roots


def _walk_critical(
    owner_index: int | None,
    owner_name: str,
    owner_stage: str | None,
    owner_lane: str,
    start: float,
    end: float,
    kids: list[Span],
    children: dict[int | None, list[Span]],
    out: list[CriticalSegment],
) -> None:
    """Backward sweep: attribute [start, end] to the last-blocking children.

    Walking from ``end`` backwards, the critical dependency at any instant
    is the child that *finished last* before that instant; the gap back to
    its end is the owner's own (self) time, then the sweep descends into
    the child and continues before the child's start.  Children whose end
    lies inside an interval already claimed by a later-finishing sibling
    ran in parallel with the critical chain and are skipped.
    """
    cursor = end
    for child in sorted(kids, key=lambda s: (s.end, s.start, s.index), reverse=True):
        if child.end > cursor:
            continue  # overlapped by critical work already attributed
        if cursor > child.end:
            out.append(
                CriticalSegment(
                    owner_index, owner_name, owner_stage, owner_lane,
                    child.end, cursor,
                )
            )
        _walk_critical(
            child.index, child.name, child.stage, child.lane,
            child.start, child.end,
            children.get(child.index, []), children, out,
        )
        cursor = child.start
        if cursor <= start:
            break
    if cursor > start:
        out.append(
            CriticalSegment(owner_index, owner_name, owner_stage, owner_lane,
                            start, cursor)
        )


def critical_path(spans: list[Span]) -> CriticalPath:
    """Extract the critical path of a span list (empty path for no spans).

    A single top-level span roots the path; flat or multi-root traces
    (e.g. the DES stream-schedule export, whose lanes are parentless) get
    a virtual ``"<trace>"`` root spanning the trace extent, so the
    tiling-identity holds for every input.
    """
    if not spans:
        return CriticalPath()
    children, roots = _children_by_parent(spans)
    segments: list[CriticalSegment] = []
    if len(roots) == 1:
        root = roots[0]
        result = CriticalPath(
            segments, root.name, root.start, root.end
        )
        _walk_critical(
            root.index, root.name, root.stage, root.lane,
            root.start, root.end, children.get(root.index, []), children, segments,
        )
    else:
        start = min(span.start for span in spans)
        end = max(span.end for span in spans)
        result = CriticalPath(segments, "<trace>", start, end)
        _walk_critical(
            None, "<trace>", None, "", start, end, roots, children, segments
        )
    segments.reverse()
    return result


# -- overlap efficiency --------------------------------------------------------


@dataclass
class OverlapStats:
    """How much transfer time compute hid (the paper's Fig. 6 argument).

    Attributes:
        transfer: Total ``h2d`` + ``d2h`` span time.
        hidden: Portion of that time overlapped by ``compute`` spans on
            *other* lanes.
        efficiency: ``hidden / transfer`` in ``[0, 1]``, or None when the
            trace has no transfer spans (nothing streamed - residency,
            not overlap).
    """

    transfer: float = 0.0
    hidden: float = 0.0

    @property
    def exposed(self) -> float:
        return self.transfer - self.hidden

    @property
    def efficiency(self) -> float | None:
        if self.transfer <= 0.0:
            return None
        return self.hidden / self.transfer


def _merge_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


def overlap_stats(spans: list[Span]) -> OverlapStats:
    """Measure hidden vs exposed transfer time across lanes.

    Hidden time is the time covered by compute on any *other* lane; those
    lanes' intervals are unioned so doubly-covered instants count once.
    The union is built once per transfer lane, sorted and disjoint, so each
    transfer span bisects to the first interval ending after it starts and
    adds the overlaps in time order - the same sums a scan of every
    interval makes.
    """
    compute_by_lane: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.stage == "compute" and span.end > span.start:
            compute_by_lane.setdefault(span.lane, []).append((span.start, span.end))
    merged_by_lane = {
        lane: _merge_intervals(intervals)
        for lane, intervals in compute_by_lane.items()
    }
    others: dict[str, tuple[list[tuple[float, float]], list[float]]] = {}
    stats = OverlapStats()
    for span in spans:
        if span.stage not in TRANSFER_STAGES:
            continue
        stats.transfer += span.duration
        if span.lane not in others:
            union = _merge_intervals([
                interval
                for lane, intervals in merged_by_lane.items()
                if lane != span.lane
                for interval in intervals
            ])
            others[span.lane] = (union, [end for _, end in union])
        union, ends = others[span.lane]
        for position in range(bisect_right(ends, span.start), len(union)):
            start, end = union[position]
            if start >= span.end:
                break
            lo = max(start, span.start)
            hi = min(end, span.end)
            if hi > lo:
                stats.hidden += hi - lo
    return stats


# -- bottleneck attribution ----------------------------------------------------


@dataclass
class Bottleneck:
    """Aggregated self time of one (name, stage) group of spans."""

    name: str
    stage: str | None
    self_time: float = 0.0
    total: float = 0.0
    count: int = 0


def top_bottlenecks(spans: list[Span], k: int = 5) -> list[Bottleneck]:
    """The k span groups with the largest aggregated self time."""
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    groups: dict[tuple[str, str | None], Bottleneck] = {}
    for span in spans:
        group = groups.setdefault(
            (span.name, span.stage), Bottleneck(span.name, span.stage)
        )
        group.self_time += span.duration - child_time.get(span.index, 0.0)
        group.total += span.duration
        group.count += 1
    ranked = sorted(
        groups.values(), key=lambda b: (-b.self_time, b.name, b.stage or "")
    )
    return ranked[: max(0, k)]


# -- the full analysis ---------------------------------------------------------


@dataclass
class TraceAnalysis:
    """Everything :func:`analyze` derives from one span list."""

    wall: float = 0.0
    span_count: int = 0
    lanes: list[str] = field(default_factory=list)
    rollups: dict[str, StageRollup] = field(default_factory=dict)
    critical: CriticalPath = field(default_factory=CriticalPath)
    overlap: OverlapStats = field(default_factory=OverlapStats)
    bottlenecks: list[Bottleneck] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "wall": self.wall,
            "span_count": self.span_count,
            "lanes": self.lanes,
            "stages": {
                stage: {
                    "total": rollup.total,
                    "self": rollup.self_time,
                    "count": rollup.count,
                }
                for stage, rollup in self.rollups.items()
            },
            "critical_path": self.critical.to_dict(),
            "overlap": {
                "transfer": self.overlap.transfer,
                "hidden": self.overlap.hidden,
                "exposed": self.overlap.exposed,
                "efficiency": self.overlap.efficiency,
            },
            "bottlenecks": [
                {
                    "name": b.name,
                    "stage": b.stage,
                    "self": b.self_time,
                    "total": b.total,
                    "count": b.count,
                }
                for b in self.bottlenecks
            ],
        }


def analyze(spans: list[Span], top: int = 5) -> TraceAnalysis:
    """Run every analysis over one span list (all-empty for no spans)."""
    if not spans:
        return TraceAnalysis()
    return TraceAnalysis(
        wall=max(s.end for s in spans) - min(s.start for s in spans),
        span_count=len(spans),
        lanes=sorted({s.lane for s in spans}, key=lambda lane: (lane != "main", lane)),
        rollups=stage_rollups(spans),
        critical=critical_path(spans),
        overlap=overlap_stats(spans),
        bottlenecks=top_bottlenecks(spans, top),
    )


def render_analysis(analysis: TraceAnalysis, unit: str = "s") -> str:
    """Human-readable report for the ``trace analyze`` subcommand."""
    if analysis.span_count == 0:
        return "empty trace: 0 spans, nothing to analyze"
    wall = analysis.wall or 1.0
    lines = [
        f"{analysis.span_count} span(s) over {len(analysis.lanes)} lane(s), "
        f"wall {analysis.wall:.6g} {unit}",
        "",
        f"{'stage':<12} {'total ' + unit:>14} {'self ' + unit:>14} "
        f"{'share':>8} {'spans':>7}",
    ]
    for stage, rollup in analysis.rollups.items():
        lines.append(
            f"{stage:<12} {rollup.total:>14.6g} {rollup.self_time:>14.6g} "
            f"{rollup.self_time / wall:>7.1%} {rollup.count:>7}"
        )
    lines.append("")
    lines.append(render_critical_path(analysis.critical, unit=unit, limit=0))
    efficiency = analysis.overlap.efficiency
    if efficiency is None:
        lines.append("overlap efficiency: n/a (no transfer spans in trace)")
    else:
        lines.append(
            f"overlap efficiency: {efficiency:.3f} "
            f"(hidden {analysis.overlap.hidden:.6g} of "
            f"{analysis.overlap.transfer:.6g} {unit} transfer)"
        )
    if analysis.bottlenecks:
        lines.append("")
        lines.append(f"top bottlenecks by self time ({unit}):")
        for b in analysis.bottlenecks:
            stage = b.stage or "-"
            lines.append(
                f"  {b.self_time:>12.6g}  {b.name:<24} stage={stage:<10} "
                f"x{b.count}"
            )
    return "\n".join(lines)


def render_critical_path(
    path: CriticalPath, unit: str = "s", limit: int = 20
) -> str:
    """Stage attribution (and optionally segments) of a critical path."""
    if not path.segments:
        return "critical path: empty trace"
    totals = path.stage_totals()
    covered = sum(totals.values())
    ratio = covered / path.duration if path.duration else 1.0
    lines = [
        f"critical path through {path.root_name!r}: {len(path.segments)} "
        f"segment(s), duration {path.duration:.6g} {unit}",
        f"critical-path coverage: stage sum {covered:.6g} / root "
        f"{path.duration:.6g} = {ratio:.4f}",
    ]
    for stage, total in totals.items():
        share = total / path.duration if path.duration else 0.0
        lines.append(f"  {stage:<12} {total:>14.6g} {share:>7.1%}")
    if limit:
        lines.append("segments (longest first):")
        longest = sorted(path.segments, key=lambda s: -s.duration)[:limit]
        for segment in longest:
            stage = segment.stage or "-"
            lines.append(
                f"  [{segment.start:.6g}, {segment.end:.6g}] "
                f"{segment.name:<24} stage={stage:<10} lane={segment.lane}"
            )
    return "\n".join(lines)
