"""Chrome-trace export, round-trip, and stage summaries."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    LogicalClock,
    Span,
    Tracer,
    load_trace_events,
    render_summary,
    spans_from_events,
    summarize,
    trace_events,
    trace_json,
    write_trace,
)


def _sample_tracer() -> Tracer:
    tracer = Tracer(clock=LogicalClock())
    tracer.counters.count("kernels.dense", 3)
    with tracer.span("run", circuit="bv_4"):
        with tracer.span("reorder", stage="transpile"):
            pass
        with tracer.span("apply:h", stage="compute", gate=0):
            with tracer.span("h2d", stage="h2d", chunk=1):
                pass
    return tracer


def test_metadata_events_present():
    events = trace_events(_sample_tracer(), process_name="unit")
    meta = {e["name"]: e for e in events if e["ph"] == "M"}
    assert meta["process_name"]["args"]["name"] == "unit"
    assert meta["clock"]["args"]["deterministic"] is True
    assert meta["counters"]["args"] == {"kernels.dense": 3}
    assert meta["thread_name"]["args"]["name"] == "main"


def test_x_events_carry_span_ids_and_stages():
    events = [e for e in trace_events(_sample_tracer()) if e["ph"] == "X"]
    by_name = {e["name"]: e for e in events}
    assert by_name["run"]["args"]["span"] == 0
    assert "parent" not in by_name["run"]["args"]
    assert by_name["h2d"]["args"]["stage"] == "h2d"
    assert by_name["h2d"]["args"]["parent"] == by_name["apply:h"]["args"]["span"]
    assert by_name["apply:h"]["args"]["gate"] == 0
    # Complete events: non-negative timestamps and durations, pid 1.
    for event in events:
        assert event["pid"] == 1
        assert event["ts"] >= 0
        assert event["dur"] >= 0


def test_trace_json_is_canonical():
    tracer = _sample_tracer()
    text = trace_json(tracer)
    assert text.endswith("\n")
    payload = json.loads(text)
    assert "traceEvents" in payload
    assert text == trace_json(tracer)


def test_write_and_load_round_trip(tmp_path):
    tracer = _sample_tracer()
    path = tmp_path / "run.trace.json"
    written = write_trace(tracer, path)
    assert written == len(path.read_text())
    events = load_trace_events(path)
    spans = spans_from_events(events)
    original = {(s.index, s.name, s.stage, s.parent, s.lane) for s in tracer.spans}
    restored = {(s.index, s.name, s.stage, s.parent, s.lane) for s in spans}
    assert restored == original


def test_load_rejects_garbage(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ObservabilityError):
        load_trace_events(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ObservabilityError):
        load_trace_events(bad)
    wrong = tmp_path / "wrong.json"
    wrong.write_text('{"other": 1}')
    with pytest.raises(ObservabilityError):
        load_trace_events(wrong)


def test_spans_from_des_style_events():
    # DES exporter events have no args; the resource rides in "cat".
    events = [
        {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": "gpu"}},
        {"name": "g0/comp", "cat": "gpu", "ph": "X", "pid": 1, "tid": 1,
         "ts": 0.0, "dur": 2.0},
    ]
    (span,) = spans_from_events(events)
    assert span.stage == "compute"
    assert span.lane == "gpu"
    assert span.duration == 2.0


def test_summary_identity_stages_plus_untraced_equals_wall():
    tracer = _sample_tracer()
    summary = summarize(tracer.spans)
    assert summary.wall == pytest.approx(
        sum(summary.stages.values()) + summary.untraced
    )
    assert summary.span_count == 4
    assert summary.lanes == ["main"]


def test_summary_self_time_attribution():
    # parent [0, 10] stage=compute with child [2, 5] stage=h2d: compute
    # gets 7 (self time), h2d gets 3.
    spans = [
        Span(index=0, name="p", stage="compute", lane="main",
             start=0.0, end=10.0, parent=None),
        Span(index=1, name="c", stage="h2d", lane="main",
             start=2.0, end=5.0, parent=0),
    ]
    summary = summarize(spans)
    assert summary.stages["compute"] == pytest.approx(7.0)
    assert summary.stages["h2d"] == pytest.approx(3.0)
    assert summary.untraced == pytest.approx(0.0)


def test_summarize_empty():
    summary = summarize([])
    assert summary.wall == 0.0
    assert summary.span_count == 0


def test_render_summary_shows_core_stages_and_wall():
    text = render_summary(summarize(_sample_tracer().spans), unit="ticks")
    for stage in ("h2d", "compute", "codec", "d2h"):
        assert stage in text
    assert "wall total" in text
    assert "(untraced)" in text
    assert "ticks total" in text


class TestEmptyAndZeroDurationTraces:
    def test_render_summary_of_empty_trace_does_not_divide_by_zero(self):
        # Regression: an empty trace has wall == 0; rendering must not
        # raise ZeroDivisionError and must show an all-zero breakdown.
        text = render_summary(summarize([]))
        assert "wall total" in text
        assert "0" in text

    def test_render_summary_of_zero_duration_spans(self):
        spans = [Span(index=0, name="p", stage="compute", lane="main",
                      start=5.0, end=5.0, parent=None)]
        summary = summarize(spans)
        assert summary.wall == 0.0
        text = render_summary(summary)
        assert "compute" in text

    def test_empty_trace_file_summary_cli(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "empty.trace.json"
        path.write_text('{"traceEvents": []}\n')
        assert main(["trace", "summary", str(path)]) == 0
        captured = capsys.readouterr()
        assert "no spans" in captured.err
        assert "wall total" in captured.out


class TestMetadataHelpers:
    def test_clock_counters_and_process_name_round_trip(self):
        from repro.obs import (
            trace_clock_deterministic,
            trace_counters_snapshot,
            trace_process_name,
        )

        events = trace_events(_sample_tracer(), process_name="unit")
        assert trace_clock_deterministic(events) is True
        assert trace_counters_snapshot(events) == {"kernels.dense": 3}
        assert trace_process_name(events) == "unit"
        assert trace_clock_deterministic([]) is False
        assert trace_counters_snapshot([]) == {}
        assert trace_process_name([]) == "repro"


class TestMultiWorkerRoundTrip:
    @pytest.fixture(scope="class")
    def worker_tracer(self) -> Tracer:
        """A real 4-worker functional run, traced on wall clock."""
        from repro.circuits.library import get_circuit
        from repro.core.simulator import QGpuSimulator

        from repro.statevector import parallel

        tracer = Tracer()
        # Lower the engine's live-amplitude floor so the sweeps of a
        # small circuit fan out to the pool threads.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(parallel, "AUTO_PARALLEL_THRESHOLD", 1 << 8)
            QGpuSimulator(workers=4, chunk_bits=10, tracer=tracer).run(
                get_circuit("qft", 14)
            )
        return tracer

    def test_four_worker_trace_is_multi_lane_and_validates(
        self, worker_tracer, tmp_path
    ):
        from repro.obs import validate_trace_file, write_trace

        lanes = worker_tracer.lanes()
        workers = [lane for lane in lanes if lane.startswith("chunk-worker")]
        assert len(workers) >= 2, lanes
        path = tmp_path / "workers.trace.json"
        write_trace(worker_tracer, path)
        checked = validate_trace_file(path)
        assert checked == len(worker_tracer.spans)

    def test_export_parse_export_is_stable(self, worker_tracer, tmp_path):
        from repro.obs import (
            events_from_spans,
            trace_clock_deterministic,
            trace_counters_snapshot,
            trace_process_name,
        )

        def re_export(events):
            rebuilt = events_from_spans(
                spans_from_events(events),
                counters=trace_counters_snapshot(events),
                deterministic=trace_clock_deterministic(events),
                process_name=trace_process_name(events),
            )
            return json.dumps({"traceEvents": rebuilt}, sort_keys=True,
                              separators=(",", ":"))

        events = trace_events(worker_tracer)
        first = re_export(events)
        second = re_export(json.loads(first)["traceEvents"])
        assert first == second

    def test_logical_clock_round_trip_is_byte_identical(self):
        from repro.obs import (
            events_from_spans,
            trace_clock_deterministic,
            trace_counters_snapshot,
            trace_process_name,
        )

        tracer = _sample_tracer()
        text = trace_json(tracer, process_name="unit")
        events = json.loads(text)["traceEvents"]
        rebuilt = events_from_spans(
            spans_from_events(events),
            counters=trace_counters_snapshot(events),
            deterministic=trace_clock_deterministic(events),
            process_name=trace_process_name(events),
        )
        assert (json.dumps({"traceEvents": rebuilt}, sort_keys=True,
                           separators=(",", ":")) + "\n") == text
