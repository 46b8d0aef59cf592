"""Tests for chrome-trace export."""

from __future__ import annotations

import json

import pytest

from repro.circuits.library import get_circuit
from repro.core.detailed import DetailedExecutor
from repro.core.schedule import GateStreamPlan, stream_makespan
from repro.core.versions import ALL_VERSIONS
from repro.hardware.events import EventTimeline
from repro.hardware.machine import Machine
from repro.hardware.pipeline import StageTimes
from repro.hardware.specs import MULTI_V100_MACHINE
from repro.hardware.topology import device_name
from repro.hardware.trace import to_chrome_trace, write_chrome_trace
from repro.obs.tracer import stage_for_resource

STREAMING_VERSIONS = [v for v in ALL_VERSIONS if v.dynamic_allocation]


def sample_result():
    timeline = EventTimeline()
    timeline.add("load", "h2d", 2.0)
    timeline.add("kernel", "gpu", 1.0, deps=("load",))
    timeline.add("store", "d2h", 2.0, deps=("kernel",))
    return timeline.run()


class TestChromeTrace:
    def test_events_cover_all_tasks(self) -> None:
        result = sample_result()
        events = to_chrome_trace(result)
        spans = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in spans} == {"load", "kernel", "store"}

    def test_metadata_names_resources(self) -> None:
        events = to_chrome_trace(sample_result(), process_name="demo")
        meta = [e for e in events if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta}
        assert {"demo", "h2d", "gpu", "d2h"} <= names

    def test_timestamps_scaled_and_ordered(self) -> None:
        events = to_chrome_trace(sample_result())
        spans = {e["name"]: e for e in events if e["ph"] == "X"}
        assert spans["load"]["ts"] == 0.0
        assert spans["kernel"]["ts"] == 2.0e6
        assert spans["store"]["dur"] == 2.0e6

    def test_distinct_tids_per_resource(self) -> None:
        events = to_chrome_trace(sample_result())
        spans = [e for e in events if e["ph"] == "X"]
        assert len({e["tid"] for e in spans}) == 3

    def test_write_round_trips_as_json(self, tmp_path) -> None:
        plans = [GateStreamPlan("g", 3, StageTimes(1.0, 0.2, 1.0))]
        result = stream_makespan(plans)
        path = tmp_path / "trace.json"
        written = write_chrome_trace(result, path)
        assert path.stat().st_size == written
        payload = json.loads(path.read_text())
        assert len(payload["traceEvents"]) >= 9


class TestDeviceAttribution:
    """Every lane the DES emits is labelled with the device that owns it."""

    @pytest.mark.parametrize("devices", [1, 2, 4])
    @pytest.mark.parametrize("version", STREAMING_VERSIONS, ids=lambda v: v.name)
    def test_spans_carry_their_lane_device(self, version, devices: int) -> None:
        executor = DetailedExecutor(
            Machine(MULTI_V100_MACHINE),
            chunk_bits=14,
            capacity_bytes=1 << 22,
            devices=devices,
        )
        run = executor.execute(get_circuit("qft", 20), version)
        events = to_chrome_trace(run.timeline)
        lanes = {e["tid"]: e["args"] for e in events if e["name"] == "thread_name"}
        assert all(stage_for_resource(args["name"]) for args in lanes.values())
        spans = [e for e in events if e["ph"] == "X"]
        if devices == 1:
            # Single-device runs keep un-namespaced lanes; the executor's own
            # span metadata still names the one device.
            assert not any("device" in args for args in lanes.values())
            assert {e["args"]["device"] for e in spans} == {device_name(0)}
            return
        for args in lanes.values():
            assert args["name"] == f"{args['device']}:{args['name'].split(':')[1]}"
        for span in spans:
            assert span["args"]["device"] == lanes[span["tid"]]["device"]
        assert {args["device"] for args in lanes.values()} == {
            device_name(i) for i in range(devices)
        }
