"""Chrome-trace export of event timelines.

Converts a :class:`~repro.hardware.events.TimelineResult` into the Trace
Event Format consumed by ``chrome://tracing`` / Perfetto, so the Fig. 6
overlap structure can be inspected interactively.  Durations are scaled to
microseconds (the format's unit); each resource becomes a named "thread".

Multi-device timelines (resources namespaced ``gpu{d}:h2d``) keep one lane
per device engine, the thread metadata carries the owning device, and each
task's ``meta`` annotations (device, link id, transfer bytes) land in the
event ``args`` - which is what :mod:`repro.obs.fleet` reads back to build
the communication matrix and per-link utilization.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.hardware.events import TimelineResult
from repro.obs.tracer import device_for_resource


def to_chrome_trace(
    result: TimelineResult,
    process_name: str = "q-gpu",
    time_scale: float = 1e6,
) -> list[dict]:
    """Build the list of Trace Event objects for ``result``.

    Args:
        result: A completed event-engine run.
        process_name: Chrome-trace process label.
        time_scale: Multiplier from model seconds to trace microseconds
            (the default renders one model second as one trace second).
    """
    resources = sorted({r.task.resource for r in result.records.values()})
    tids = {resource: index + 1 for index, resource in enumerate(resources)}
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": process_name},
        }
    ]
    for resource, tid in tids.items():
        args: dict = {"name": resource}
        device = device_for_resource(resource)
        if device is not None:
            args["device"] = device
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": args,
            }
        )
    # Ties on start time are broken by lane then name: the engine's record
    # order varies with set-iteration order across processes, and the
    # byte-identical-export guarantee must not depend on it.
    for record in sorted(
        result.records.values(),
        key=lambda r: (r.start, tids[r.task.resource], r.task.name),
    ):
        event = {
            "name": record.task.name,
            "cat": record.task.resource,
            "ph": "X",
            "pid": 1,
            "tid": tids[record.task.resource],
            "ts": record.start * time_scale,
            "dur": record.task.duration * time_scale,
        }
        args = dict(record.task.meta) if record.task.meta else {}
        device = device_for_resource(record.task.resource)
        if device is not None:
            args.setdefault("device", device)
        if args:
            event["args"] = args
        events.append(event)
    return events


def write_chrome_trace(
    result: TimelineResult, path: str | Path, process_name: str = "q-gpu"
) -> int:
    """Write the trace JSON; returns bytes written."""
    payload = json.dumps(
        {"traceEvents": to_chrome_trace(result, process_name)}, indent=None
    )
    Path(path).write_text(payload)
    return len(payload)
