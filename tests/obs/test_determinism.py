"""Trace determinism: serial runs reproduce byte-identically; parallel
runs stay structurally well-formed."""

from __future__ import annotations

from repro.circuits.library import get_circuit
from repro.core.simulator import QGpuSimulator
from repro.core.versions import VERSIONS_BY_NAME
from repro.obs import (
    LogicalClock,
    Tracer,
    check_spans,
    metrics_json,
    spans_from_events,
    summarize,
    trace_events,
    trace_json,
)


def _traced_run(workers, clock_factory, qubits=10):
    tracer = Tracer(clock=clock_factory())
    simulator = QGpuSimulator(
        version=VERSIONS_BY_NAME["Q-GPU"], workers=workers, tracer=tracer
    )
    simulator.run(get_circuit("bv", qubits))
    return tracer


def test_serial_logical_trace_is_byte_identical():
    first = _traced_run(1, LogicalClock)
    second = _traced_run(1, LogicalClock)
    assert trace_json(first) == trace_json(second)
    assert metrics_json(first) == metrics_json(second)


def test_serial_trace_round_trips_through_events():
    tracer = _traced_run(1, LogicalClock)
    spans = spans_from_events(trace_events(tracer))
    assert len(spans) == len(tracer.spans)
    check_spans(spans)


def test_parallel_trace_is_wellformed(monkeypatch):
    # Lower the engine's live-amplitude floor so the sweeps of a small
    # circuit actually land on the worker pool.
    from repro.statevector import parallel

    monkeypatch.setattr(parallel, "AUTO_PARALLEL_THRESHOLD", 1 << 8)
    tracer = _traced_run(3, LogicalClock, qubits=14)
    check_spans(tracer.spans)
    lanes = tracer.lanes()
    assert lanes[0] == "main"
    assert any(lane.startswith("chunk-worker") for lane in lanes)


def test_traced_run_matches_untraced_result():
    circuit = get_circuit("qft", 8)
    plain = QGpuSimulator(version=VERSIONS_BY_NAME["Q-GPU"], workers=1).run(circuit)
    tracer = Tracer(clock=LogicalClock())
    traced = QGpuSimulator(
        version=VERSIONS_BY_NAME["Q-GPU"], workers=1, tracer=tracer
    ).run(circuit)
    assert (plain.amplitudes == traced.amplitudes).all()


def test_stage_totals_plus_untraced_equal_wall():
    # The acceptance identity: per-stage totals sum to the wall total
    # (within fp tolerance; exact for integer logical ticks).
    tracer = _traced_run(1, LogicalClock)
    summary = summarize(tracer.spans)
    assert summary.wall == sum(summary.stages.values()) + summary.untraced
    assert summary.stages.get("compute", 0) > 0


def test_run_counters_populated():
    tracer = _traced_run(1, LogicalClock)
    snapshot = tracer.counters.snapshot()
    assert snapshot["runs.completed"] == 1
    assert snapshot["chunk_updates.total"] > 0
    assert any(name.startswith("kernels.") for name in snapshot)
