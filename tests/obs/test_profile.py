"""Sampling profiler: attribution, exports, flamegraph, RSS read-backs."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs import LogicalClock, SamplingProfiler, Tracer
from repro.obs.profile import (
    UNATTRIBUTED_STAGE,
    process_peak_rss_bytes,
    process_rss_bytes,
    render_flamegraph,
)


class TestValidation:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ObservabilityError, match="interval"):
            SamplingProfiler(interval=0.0)

    def test_rejects_zero_depth(self):
        with pytest.raises(ObservabilityError, match="max_depth"):
            SamplingProfiler(max_depth=0)

    def test_double_start_raises(self):
        profiler = SamplingProfiler()
        profiler.start()
        try:
            with pytest.raises(ObservabilityError, match="already started"):
                profiler.start()
        finally:
            profiler.stop()


class TestSampleAttribution:
    def test_sample_inside_span_lands_on_that_stage(self):
        tracer = Tracer(clock=LogicalClock())
        profiler = SamplingProfiler(tracer=tracer)
        with tracer.span("apply", "compute"):
            assert profiler.sample_once() >= 1
        stages = {key[1] for key in profiler.samples}
        assert "compute" in stages

    def test_sample_outside_any_span_is_unattributed(self):
        profiler = SamplingProfiler(tracer=Tracer(clock=LogicalClock()))
        profiler.sample_once()
        main_stages = {
            key[1] for key in profiler.samples if key[0] == "main"
        }
        assert main_stages == {UNATTRIBUTED_STAGE}

    def test_tracer_profiler_kwarg_attaches(self):
        profiler = SamplingProfiler()
        tracer = Tracer(clock=LogicalClock(), profiler=profiler)
        assert profiler.tracer is tracer

    def test_worker_threads_sample_under_their_own_lane(self):
        tracer = Tracer(clock=LogicalClock())
        profiler = SamplingProfiler(tracer=tracer)
        ready = threading.Event()
        done = threading.Event()

        def work() -> None:
            with tracer.span("worker-span", "compute"):
                ready.set()
                done.wait(timeout=10)

        thread = threading.Thread(target=work, name="lane-w0")
        thread.start()
        try:
            assert ready.wait(timeout=10)
            profiler.sample_once()
        finally:
            done.set()
            thread.join(timeout=10)
        lanes = {key[0]: key[1] for key in profiler.samples}
        assert lanes.get("lane-w0") == "compute"

    def test_background_thread_collects_and_stops(self):
        tracer = Tracer(clock=LogicalClock())
        with SamplingProfiler(interval=0.001, tracer=tracer) as profiler:
            assert "obs-profiler" in {t.name for t in threading.enumerate()}
            deadline = threading.Event()
            with tracer.span("spin", "compute"):
                while profiler.total_samples == 0 and not deadline.wait(0.005):
                    pass
        assert "obs-profiler" not in {t.name for t in threading.enumerate()}
        assert profiler.total_samples >= 1

    def test_max_depth_truncates_stacks(self):
        profiler = SamplingProfiler(max_depth=2)
        profiler.sample_once()
        for key in profiler.samples:
            assert len(key) - 2 <= 2  # (lane, stage, *frames)


class TestExports:
    def _profiled(self) -> SamplingProfiler:
        tracer = Tracer(clock=LogicalClock())
        profiler = SamplingProfiler(tracer=tracer)
        with tracer.span("apply", "compute"):
            profiler.sample_once()
            profiler.sample_once()
        with tracer.span("choose", "plan"):
            profiler.sample_once()
        return profiler

    def test_stage_shares_sum_to_one_and_sort_descending(self):
        shares = self._profiled().stage_shares()
        assert shares  # at least the two staged samples
        assert sum(shares.values()) == pytest.approx(1.0)
        assert list(shares.values()) == sorted(shares.values(), reverse=True)
        assert shares.get("compute", 0) > shares.get("plan", 0) > 0

    def test_folded_lines_are_semicolon_stacks_with_counts(self):
        folded = self._profiled().folded()
        assert folded.endswith("\n")
        for line in folded.strip().splitlines():
            stack, count = line.rsplit(" ", 1)
            assert int(count) >= 1
            parts = stack.split(";")
            assert len(parts) >= 2  # lane;stage at minimum
            assert parts[0]  # lane never empty

    def test_empty_profiler_folded_is_empty(self):
        assert SamplingProfiler().folded() == ""

    def test_flamegraph_is_selfcontained_deterministic_svg(self):
        profiler = self._profiled()
        svg = profiler.flamegraph(title="t")
        assert svg.startswith("<svg xmlns=")
        assert svg == profiler.flamegraph(title="t")  # deterministic
        assert "<script" not in svg and "http://" not in svg.replace(
            "http://www.w3.org/2000/svg", ""
        )
        assert "compute" in svg and "plan" in svg

    def test_render_flamegraph_handles_no_samples(self):
        svg = render_flamegraph({}, title="empty")
        assert svg.startswith("<svg") and "0 sample(s)" in svg

    def test_write_emits_folded_and_svg(self, tmp_path):
        folded_path, svg_path = self._profiled().write(tmp_path / "run.profile")
        assert folded_path.name == "run.profile.folded"
        assert svg_path.name == "run.profile.svg"
        assert folded_path.read_text().strip()
        assert svg_path.read_text().startswith("<svg")


class TestMemoryTelemetry:
    def test_process_rss_helpers_return_positive_bytes(self):
        rss = process_rss_bytes()
        peak = process_peak_rss_bytes()
        assert rss > 0
        assert peak >= rss // 2  # peak is a high-water mark of the same process

    def test_tracer_memory_records_span_peak_histogram(self):
        tracer = Tracer(clock=LogicalClock(), memory=True)
        with tracer.span("alloc", "compute"):
            blob = bytearray(1 << 20)
            del blob
        snapshot = tracer.counters.histogram_snapshot()
        peaks = [
            series
            for key, series in snapshot.items()
            if key.startswith("span_peak_bytes")
        ]
        assert peaks and peaks[0]["count"] >= 1
        assert peaks[0]["max"] > 0
