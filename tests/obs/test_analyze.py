"""Trace analytics: rollups, critical path, overlap efficiency, bottlenecks."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import (
    Span,
    analyze,
    critical_path,
    overlap_stats,
    render_analysis,
    render_critical_path,
    stage_rollups,
    top_bottlenecks,
)
from repro.obs.analyze import TRANSFER_STAGES, UNATTRIBUTED, OverlapStats


def reference_overlap_stats(spans: list[Span]) -> OverlapStats:
    """The overlap metric as first written: every transfer span re-merges
    every other lane's compute intervals and scans all of them."""

    def merge(intervals):
        merged = []
        for start, end in sorted(intervals):
            if merged and start <= merged[-1][1]:
                if end > merged[-1][1]:
                    merged[-1] = (merged[-1][0], end)
            else:
                merged.append((start, end))
        return merged

    compute_by_lane: dict[str, list[tuple[float, float]]] = {}
    for span in spans:
        if span.stage == "compute" and span.end > span.start:
            compute_by_lane.setdefault(span.lane, []).append((span.start, span.end))
    merged_by_lane = {
        lane: merge(intervals) for lane, intervals in compute_by_lane.items()
    }
    stats = OverlapStats()
    for span in spans:
        if span.stage not in TRANSFER_STAGES:
            continue
        stats.transfer += span.duration
        other: list[tuple[float, float]] = []
        for lane, intervals in merged_by_lane.items():
            if lane != span.lane:
                other.extend(intervals)
        for start, end in merge(other):
            lo = max(start, span.start)
            hi = min(end, span.end)
            if hi > lo:
                stats.hidden += hi - lo
    return stats


# Coarse times on a grid make touching, nested, repeated and zero-length
# intervals common; the fine ones exercise inexact float sums.
TIMES = st.one_of(
    st.integers(0, 12).map(float),
    st.floats(0.0, 12.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def lane_spans(draw) -> list[Span]:
    lanes = [f"lane{k}" for k in range(draw(st.integers(1, 8)))]
    spans = []
    for index in range(draw(st.integers(0, 40))):
        start = draw(TIMES)
        end = draw(st.one_of(st.just(start), TIMES.map(lambda t: start + t)))
        spans.append(_span(
            index, f"s{index}", draw(st.sampled_from(["compute", "h2d", "d2h"])),
            draw(st.sampled_from(lanes)), start, end,
        ))
    return spans


def _span(index, name, stage, lane, start, end, parent=None) -> Span:
    return Span(index=index, name=name, stage=stage, lane=lane,
                start=float(start), end=float(end), parent=parent)


def _nested_tree() -> list[Span]:
    """root [0,20] > gate A [1,9] > h2d [2,4]; gate B [10,18]."""
    return [
        _span(0, "run", None, "main", 0, 20),
        _span(1, "apply:a", "compute", "main", 1, 9, parent=0),
        _span(2, "h2d", "h2d", "main", 2, 4, parent=1),
        _span(3, "apply:b", "compute", "main", 10, 18, parent=0),
    ]


class TestStageRollups:
    def test_self_vs_total(self):
        rollups = stage_rollups(_nested_tree())
        assert rollups["compute"].total == pytest.approx(16.0)
        assert rollups["compute"].self_time == pytest.approx(14.0)
        assert rollups["compute"].count == 2
        assert rollups["h2d"].self_time == pytest.approx(2.0)

    def test_taxonomy_order(self):
        assert list(stage_rollups(_nested_tree())) == ["h2d", "compute"]

    def test_empty(self):
        assert stage_rollups([]) == {}


class TestCriticalPath:
    def test_segments_tile_the_root_exactly(self):
        path = critical_path(_nested_tree())
        assert path.root_name == "run"
        assert path.duration == pytest.approx(20.0)
        total = sum(s.duration for s in path.segments)
        assert total == pytest.approx(path.duration)
        # Segments abut in time order.
        for before, after in zip(path.segments, path.segments[1:]):
            assert after.start == pytest.approx(before.end)
        assert path.segments[0].start == pytest.approx(path.root_start)
        assert path.segments[-1].end == pytest.approx(path.root_end)

    def test_stage_totals_sum_to_duration(self):
        path = critical_path(_nested_tree())
        totals = path.stage_totals()
        assert sum(totals.values()) == pytest.approx(path.duration)
        # root self time: [0,1] + [9,10] + [18,20] = 4
        assert totals[UNATTRIBUTED] == pytest.approx(4.0)
        # compute: A minus its child (2) + B (8) = 12 + 2 h2d
        assert totals["compute"] == pytest.approx(14.0)
        assert totals["h2d"] == pytest.approx(2.0)

    def test_parallel_sibling_off_critical_path(self):
        # Two workers under one gate: worker-2 ends later, so worker-1 is
        # entirely overlapped and contributes nothing.
        spans = [
            _span(0, "gate", "compute", "main", 0, 10),
            _span(1, "w1", "compute", "chunk-worker_0", 1, 5, parent=0),
            _span(2, "w2", "compute", "chunk-worker_1", 2, 9, parent=0),
        ]
        path = critical_path(spans)
        names = {s.name for s in path.segments}
        assert "w1" not in names
        assert "w2" in names
        assert sum(s.duration for s in path.segments) == pytest.approx(10.0)

    def test_flat_trace_gets_virtual_root(self):
        spans = [
            _span(0, "h2d:0", "h2d", "h2d", 0, 4),
            _span(1, "comp:0", "compute", "gpu", 4, 6),
            _span(2, "d2h:0", "d2h", "d2h", 6, 9),
        ]
        path = critical_path(spans)
        assert path.root_name == "<trace>"
        assert path.duration == pytest.approx(9.0)
        assert sum(path.stage_totals().values()) == pytest.approx(9.0)

    def test_empty(self):
        path = critical_path([])
        assert path.segments == []
        assert path.duration == 0.0
        assert path.stage_totals() == {}

    def test_render(self):
        text = render_critical_path(critical_path(_nested_tree()), unit="ticks")
        assert "coverage" in text
        assert "compute" in text
        assert render_critical_path(critical_path([])) == "critical path: empty trace"


class TestOverlapStats:
    def test_cross_lane_compute_hides_transfer(self):
        spans = [
            _span(0, "h2d:1", "h2d", "h2d-lane", 0, 10),
            _span(1, "comp:0", "compute", "gpu-lane", 4, 8),
        ]
        stats = overlap_stats(spans)
        assert stats.transfer == pytest.approx(10.0)
        assert stats.hidden == pytest.approx(4.0)
        assert stats.efficiency == pytest.approx(0.4)
        assert stats.exposed == pytest.approx(6.0)

    def test_same_lane_compute_does_not_count_as_overlap(self):
        # Functional traces nest h2d inside the gate's compute span on the
        # same lane - that is serialization, not overlap.
        spans = [
            _span(0, "apply", "compute", "main", 0, 10),
            _span(1, "h2d", "h2d", "main", 2, 4, parent=0),
        ]
        stats = overlap_stats(spans)
        assert stats.hidden == 0.0
        assert stats.efficiency == 0.0

    def test_overlapping_compute_lanes_count_once(self):
        spans = [
            _span(0, "h2d", "h2d", "io", 0, 4),
            _span(1, "c1", "compute", "g1", 0, 3),
            _span(2, "c2", "compute", "g2", 1, 4),
        ]
        stats = overlap_stats(spans)
        assert stats.hidden == pytest.approx(4.0)
        assert stats.efficiency == pytest.approx(1.0)

    def test_no_transfers_means_no_rating(self):
        spans = [_span(0, "c", "compute", "main", 0, 5)]
        assert overlap_stats(spans).efficiency is None

    @given(spans=lane_spans())
    def test_matches_the_full_scan_exactly(self, spans):
        stats = overlap_stats(spans)
        expected = reference_overlap_stats(spans)
        assert stats.transfer == expected.transfer
        assert stats.hidden == expected.hidden

    def test_touching_nested_and_zero_length_intervals(self):
        spans = [
            _span(0, "c", "compute", "g1", 0, 2),
            _span(1, "c", "compute", "g1", 2, 5),  # touches the first
            _span(2, "c", "compute", "g2", 1, 3),  # nested in g1's union
            _span(3, "c", "compute", "g2", 7, 9),
            _span(4, "c", "compute", "g3", 8, 8),  # zero-length compute
            _span(5, "t", "h2d", "io", 5, 7),  # touches both sides
            _span(6, "t", "d2h", "io", 4, 4),  # zero-length transfer
            _span(7, "t", "h2d", "g1", 0, 10),
            _span(8, "t", "d2h", "io", 1, 8.5),
        ]
        stats = overlap_stats(spans)
        expected = reference_overlap_stats(spans)
        assert (stats.transfer, stats.hidden) == (expected.transfer, expected.hidden)
        assert stats.hidden == pytest.approx(0.0 + 0.0 + 4.0 + 5.5)


class TestBottlenecks:
    def test_aggregates_by_name_and_stage(self):
        spans = _nested_tree()
        top = top_bottlenecks(spans, k=2)
        assert top[0].name == "apply:a" or top[0].name == "apply:b"
        # apply:a self 6 + apply:b self 8 aggregate separately by name.
        by_name = {b.name: b for b in top_bottlenecks(spans, k=10)}
        assert by_name["apply:b"].self_time == pytest.approx(8.0)
        assert by_name["apply:a"].self_time == pytest.approx(6.0)
        assert by_name["run"].self_time == pytest.approx(4.0)

    def test_k_bounds(self):
        assert top_bottlenecks(_nested_tree(), k=0) == []
        assert len(top_bottlenecks(_nested_tree(), k=100)) == 4


class TestAnalyze:
    def test_full_analysis_dict(self):
        analysis = analyze(_nested_tree(), top=3)
        payload = analysis.to_dict()
        assert payload["span_count"] == 4
        assert payload["wall"] == pytest.approx(20.0)
        assert payload["critical_path"]["duration"] == pytest.approx(20.0)
        assert len(payload["bottlenecks"]) == 3
        assert payload["overlap"]["efficiency"] == 0.0

    def test_empty_analysis(self):
        analysis = analyze([])
        assert analysis.span_count == 0
        assert "nothing to analyze" in render_analysis(analysis)

    def test_render_mentions_everything(self):
        text = render_analysis(analyze(_nested_tree()), unit="ticks")
        assert "critical path" in text
        assert "overlap efficiency" in text
        assert "bottlenecks" in text
