"""Unified observability: spans, counters, exporters, validation, logging.

The span trace is the one record of a run: every summary below is
derived from it, its counters, or (for the batch service) the per-job
``jobs`` records.  Quick start::

    from repro.obs import LogicalClock, Tracer, write_trace

    tracer = Tracer(clock=LogicalClock())
    sim = QGpuSimulator(machine, tracer=tracer)
    sim.run(circuit)
    write_trace(tracer, "run.trace.json")   # open in Perfetto

Analytics over exported traces live in :mod:`repro.obs.analyze` (stage
rollups, critical path, overlap efficiency, bottlenecks),
:mod:`repro.obs.drift` (model-vs-measured comparison),
:mod:`repro.obs.fleet` (multi-device busy/idle and comm matrix) and
:mod:`repro.obs.roofline` (the Fig. 15 model points and the measured
kernel rows).  See ``docs/observability.md`` for the span taxonomy,
export formats, and overhead numbers; for function-level time, run a
command under ``python -m cProfile``.
"""

from repro.obs.analyze import (
    Bottleneck,
    CriticalPath,
    CriticalSegment,
    OverlapStats,
    StageRollup,
    TraceAnalysis,
    analyze,
    critical_path,
    overlap_stats,
    render_analysis,
    render_critical_path,
    stage_rollups,
    top_bottlenecks,
)
from repro.obs.clock import LogicalClock, WallClock
from repro.obs.counters import CounterRegistry
from repro.obs.drift import (
    DRIFT_STAGES,
    DriftReport,
    StageDrift,
    drift_report,
    measured_breakdown,
    predicted_breakdown,
)
from repro.obs.export import (
    TraceSummary,
    events_from_spans,
    load_trace_events,
    metrics_json,
    render_summary,
    spans_from_events,
    summarize,
    trace_clock_deterministic,
    trace_counters_snapshot,
    trace_events,
    trace_json,
    trace_process_name,
    write_trace,
)
from repro.obs.fleet import (
    DeviceStats,
    FleetAnalysis,
    LinkStats,
    fleet_analysis,
    render_fleet,
    span_device,
)
from repro.obs.ledger import (
    MetricDiff,
    append_record,
    baseline_for,
    build_record,
    diff_records,
    environment_fingerprint,
    flatten_numeric,
    load_ledger,
    render_diff,
    render_record,
)
from repro.obs.log import JsonLogFormatter, configure_logging, get_logger
from repro.obs.roofline import (
    KernelRoofline,
    RooflinePoint,
    kernel_rooflines,
    render_kernel_rooflines,
    roofline_ceiling,
    roofline_point,
    rooflines_payload,
)
from repro.obs.tracer import (
    DES_RESOURCE_STAGES,
    NULL_TRACER,
    STAGES,
    Span,
    Tracer,
    device_for_resource,
    stage_for_resource,
)
from repro.obs.validate import check_spans, validate_spans, validate_trace_file

__all__ = [
    "Bottleneck",
    "CounterRegistry",
    "CriticalPath",
    "CriticalSegment",
    "DES_RESOURCE_STAGES",
    "DRIFT_STAGES",
    "DeviceStats",
    "DriftReport",
    "FleetAnalysis",
    "JsonLogFormatter",
    "KernelRoofline",
    "LinkStats",
    "LogicalClock",
    "MetricDiff",
    "NULL_TRACER",
    "OverlapStats",
    "RooflinePoint",
    "STAGES",
    "Span",
    "StageDrift",
    "StageRollup",
    "TraceAnalysis",
    "TraceSummary",
    "Tracer",
    "WallClock",
    "analyze",
    "append_record",
    "baseline_for",
    "build_record",
    "check_spans",
    "configure_logging",
    "critical_path",
    "device_for_resource",
    "diff_records",
    "drift_report",
    "environment_fingerprint",
    "events_from_spans",
    "flatten_numeric",
    "fleet_analysis",
    "get_logger",
    "kernel_rooflines",
    "load_ledger",
    "load_trace_events",
    "measured_breakdown",
    "metrics_json",
    "overlap_stats",
    "predicted_breakdown",
    "render_analysis",
    "render_critical_path",
    "render_diff",
    "render_fleet",
    "render_kernel_rooflines",
    "render_record",
    "render_summary",
    "roofline_ceiling",
    "roofline_point",
    "rooflines_payload",
    "span_device",
    "spans_from_events",
    "stage_for_resource",
    "stage_rollups",
    "summarize",
    "top_bottlenecks",
    "trace_clock_deterministic",
    "trace_counters_snapshot",
    "trace_events",
    "trace_json",
    "trace_process_name",
    "validate_spans",
    "validate_trace_file",
    "write_trace",
]
