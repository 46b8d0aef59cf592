"""Tests for the fleet analytics (obs/fleet.py)."""

from __future__ import annotations

import math

import pytest

from repro.circuits.library import get_circuit
from repro.core.detailed import DetailedExecutor
from repro.core.versions import OVERLAP
from repro.hardware.machine import Machine
from repro.hardware.specs import MULTI_V100_MACHINE
from repro.hardware.topology import HOST
from repro.hardware.trace import to_chrome_trace
from repro.obs.analyze import stage_rollups
from repro.obs.export import spans_from_events
from repro.obs.fleet import (
    DEFAULT_DEVICE,
    FleetAnalysis,
    fleet_analysis,
    render_fleet,
    span_device,
)
from repro.obs.tracer import Span


def _span(
    index: int,
    lane: str,
    stage: str | None,
    start: float,
    end: float,
    **attrs,
) -> Span:
    return Span(
        index=index,
        name=f"s{index}",
        stage=stage,
        lane=lane,
        start=start,
        end=end,
        parent=None,
        attrs=attrs,
    )


@pytest.fixture(scope="module")
def des_spans():
    executor = DetailedExecutor(
        Machine(MULTI_V100_MACHINE),
        chunk_bits=14,
        capacity_bytes=1 << 22,
        devices=4,
    )
    run = executor.execute(get_circuit("qft", 20), OVERLAP)
    spans = spans_from_events(to_chrome_trace(run.timeline, time_scale=1.0))
    return run, spans


class TestSpanDevice:
    def test_explicit_attr_wins(self) -> None:
        span = _span(0, "gpu2:h2d", "h2d", 0, 1, device="gpu7")
        assert span_device(span) == "gpu7"

    def test_namespaced_lane(self) -> None:
        assert span_device(_span(0, "gpu3:d2h", "d2h", 0, 1)) == "gpu3"

    def test_legacy_lane_maps_to_default_device(self) -> None:
        assert span_device(_span(0, "h2d", "h2d", 0, 1)) == DEFAULT_DEVICE

    def test_non_device_lane_is_none(self) -> None:
        assert span_device(_span(0, "service", None, 0, 1)) is None


class TestSyntheticFleet:
    def test_empty_spans(self) -> None:
        assert fleet_analysis([]) == FleetAnalysis()

    def test_busy_is_interval_union(self) -> None:
        # Two overlapping spans on one device: busy counts the union once.
        spans = [
            _span(0, "gpu0:h2d", "h2d", 0.0, 2.0),
            _span(1, "gpu0:gpu", "compute", 1.0, 3.0),
        ]
        fa = fleet_analysis(spans)
        gpu0 = fa.device("gpu0")
        assert gpu0 is not None
        assert gpu0.busy == pytest.approx(3.0)
        assert gpu0.idle == pytest.approx(0.0)

    def test_comm_matrix_from_attrs(self) -> None:
        spans = [
            _span(0, "gpu0:h2d", "h2d", 0, 1, bytes=100, src=HOST,
                  dst="gpu0", link="pcie/host-gpu0"),
            _span(1, "gpu1:h2d", "h2d", 0, 1, bytes=50, src=HOST,
                  dst="gpu1", link="pcie/host-gpu1"),
            _span(2, "gpu0:d2h", "d2h", 1, 2, bytes=100, src="gpu0",
                  dst=HOST, link="pcie/host-gpu0"),
        ]
        fa = fleet_analysis(spans)
        assert fa.total_bytes == 250
        assert fa.comm_matrix[HOST] == {"gpu0": 100, "gpu1": 50}
        assert fa.comm_matrix["gpu0"] == {HOST: 100}
        by_id = {link.link_id: link for link in fa.links}
        assert by_id["pcie/host-gpu0"].bytes_total == 200
        assert by_id["pcie/host-gpu0"].transfers == 2

    def test_direction_inferred_without_endpoints(self) -> None:
        # No src/dst attrs: the stage implies host->device / device->host.
        spans = [
            _span(0, "gpu1:h2d", "h2d", 0, 1, bytes=10),
            _span(1, "gpu1:d2h", "d2h", 1, 2, bytes=10),
        ]
        fa = fleet_analysis(spans)
        assert fa.comm_matrix == {HOST: {"gpu1": 10}, "gpu1": {HOST: 10}}

    def test_imbalance_is_max_over_mean(self) -> None:
        spans = [
            _span(0, "gpu0:gpu", "compute", 0.0, 3.0),
            _span(1, "gpu1:gpu", "compute", 0.0, 1.0),
        ]
        fa = fleet_analysis(spans)
        assert fa.imbalance == pytest.approx(3.0 / 2.0)

    def test_link_utilization_and_timeline(self) -> None:
        spans = [
            _span(0, "gpu0:h2d", "h2d", 0.0, 1.0, bytes=1,
                  link="pcie/host-gpu0"),
            _span(1, "gpu0:gpu", "compute", 1.0, 4.0),
        ]
        fa = fleet_analysis(spans, buckets=4)
        link = fa.links[0]
        assert link.utilization == pytest.approx(0.25)
        assert link.timeline == pytest.approx([1.0, 0.0, 0.0, 0.0])


class TestDesIdentity:
    def test_comm_matrix_matches_executor_exactly(self, des_spans) -> None:
        run, spans = des_spans
        fa = fleet_analysis(spans)
        assert fa.total_bytes == run.bytes_h2d + run.bytes_d2h
        flat = {
            (src, dst): moved
            for src, row in fa.comm_matrix.items()
            for dst, moved in row.items()
        }
        assert flat == dict(run.transfers)

    def test_link_bytes_match_executor(self, des_spans) -> None:
        run, spans = des_spans
        fa = fleet_analysis(spans)
        assert {
            link.link_id: link.bytes_total for link in fa.links
        } == dict(run.link_bytes)

    def test_device_stages_reconcile_with_rollup(self, des_spans) -> None:
        _, spans = des_spans
        fa = fleet_analysis(spans)
        rollup = {s: r.total for s, r in stage_rollups(spans).items()}
        summed: dict[str, float] = {}
        for stats in fa.devices:
            for stage, total in stats.stages.items():
                summed[stage] = summed.get(stage, 0.0) + total
        for stage, total in summed.items():
            assert math.isclose(total, rollup[stage], rel_tol=1e-9)

    def test_busy_bounded_by_wall(self, des_spans) -> None:
        _, spans = des_spans
        fa = fleet_analysis(spans)
        for stats in fa.devices:
            assert 0.0 < stats.busy <= fa.wall * (1 + 1e-12)
            assert stats.busy + stats.idle == pytest.approx(fa.wall)


class TestOutputs:
    def test_render_mentions_every_device_and_link(self, des_spans) -> None:
        _, spans = des_spans
        fa = fleet_analysis(spans)
        text = render_fleet(fa)
        for stats in fa.devices:
            assert stats.device in text
        for link in fa.links:
            assert link.link_id in text
        assert "imbalance" in text

    def test_to_dict_round_trips_through_json(self, des_spans) -> None:
        import json

        _, spans = des_spans
        payload = fleet_analysis(spans).to_dict()
        assert json.loads(json.dumps(payload)) == payload
