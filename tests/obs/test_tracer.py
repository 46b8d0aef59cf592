"""Tracer span mechanics: nesting, lanes, disabled mode, stage checks."""

from __future__ import annotations

import threading

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    NULL_TRACER,
    STAGES,
    CounterRegistry,
    LogicalClock,
    Tracer,
    stage_for_resource,
)


def test_single_span_records_interval():
    tracer = Tracer(clock=LogicalClock())
    with tracer.span("work", stage="compute"):
        pass
    (span,) = tracer.spans
    assert span.name == "work"
    assert span.stage == "compute"
    assert span.end >= span.start
    assert span.parent is None
    assert span.lane == "main"


def test_nested_spans_link_parent():
    tracer = Tracer(clock=LogicalClock())
    with tracer.span("outer", stage="compute"):
        with tracer.span("inner", stage="h2d"):
            pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].index
    assert by_name["outer"].start <= by_name["inner"].start
    assert by_name["inner"].end <= by_name["outer"].end


def test_unknown_stage_rejected():
    tracer = Tracer(clock=LogicalClock())
    with pytest.raises(ObservabilityError):
        with tracer.span("bad", stage="warp-drive"):
            pass


@pytest.mark.parametrize("option", ["histograms", "memory", "profiler"])
def test_retired_tracer_options_rejected(option):
    """The trace is the one record: no histogram, memory or profiler options."""
    with pytest.raises(TypeError, match=option):
        Tracer(clock=LogicalClock(), **{option: True})


def test_tracer_takes_only_clock_enabled_and_counters():
    import inspect

    assert list(inspect.signature(Tracer).parameters) == ["clock", "enabled", "counters"]
    counters = CounterRegistry()
    assert Tracer(counters=counters).counters is counters


def test_stage_optional():
    tracer = Tracer(clock=LogicalClock())
    with tracer.span("structural"):
        pass
    assert tracer.spans[0].stage is None


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("work", stage="compute"):
        pass
    assert tracer.spans == []
    assert NULL_TRACER.spans == []


def test_null_tracer_is_shared_and_disabled():
    assert NULL_TRACER.enabled is False
    # The disabled span context manager is reusable and cheap.
    handle = NULL_TRACER.span("x", stage="compute")
    assert handle is NULL_TRACER.span("y", stage="h2d")


def test_attrs_recorded():
    tracer = Tracer(clock=LogicalClock())
    with tracer.span("apply:h", stage="compute", gate=3, groups=2):
        pass
    assert tracer.spans[0].attrs == {"gate": 3, "groups": 2}


def test_explicit_parent_crosses_threads():
    tracer = Tracer(clock=LogicalClock())
    with tracer.span("coordinate", stage="schedule"):
        parent = tracer.current_parent()

        def work():
            with tracer.span("worker", stage="compute", parent=parent):
                pass

        thread = threading.Thread(target=work, name="chunk-worker_0")
        thread.start()
        thread.join()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["worker"].parent == by_name["coordinate"].index
    assert by_name["worker"].lane == "chunk-worker_0"


def test_lanes_main_first():
    tracer = Tracer(clock=LogicalClock())
    with tracer.span("a", stage="compute"):
        pass

    def work():
        with tracer.span("b", stage="compute"):
            pass

    thread = threading.Thread(target=work, name="aaa-worker")
    thread.start()
    thread.join()
    assert tracer.lanes()[0] == "main"


def test_des_resource_names_map_into_taxonomy():
    # Every DES-model resource must land inside the stage taxonomy so the
    # two exporters share one summary vocabulary.
    for resource in ("h2d", "gpu", "d2h", "cpu", "codec"):
        assert stage_for_resource(resource) in STAGES


def test_detailed_executor_resources_all_mapped():
    # The resources the detailed DES executor actually schedules must map
    # into the taxonomy.
    from repro.circuits.library import get_circuit
    from repro.core.detailed import DetailedExecutor
    from repro.core.versions import VERSIONS_BY_NAME
    from repro.hardware.machine import Machine
    from repro.hardware.specs import MACHINES

    executor = DetailedExecutor(
        Machine(MACHINES["p100"]), chunk_bits=6, capacity_bytes=4 * (16 << 6)
    )
    run = executor.execute(get_circuit("bv", 8), VERSIONS_BY_NAME["Q-GPU"])
    resources = {r.task.resource for r in run.timeline.records.values()}
    assert resources, "detailed run scheduled no tasks"
    for resource in resources:
        assert stage_for_resource(resource) in STAGES, resource
