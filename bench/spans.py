"""Spans recorded by the benchmark around calls into the program's layers.

Nothing under ``src/`` is instrumented: a span is opened here, in the
benchmark's own process and thread, around one public call.  Spans stay in
memory and are written once, when the traced run ends.  The timed runs use
:data:`OFF`, whose ``span`` does nothing, through the very same call sites,
so the difference between a traced and an untraced pass is the cost of
looking.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator


@dataclass
class Span:
    """One timed call.  Times are integer nanoseconds of the monotonic clock."""

    span_id: int
    name: str
    parent: int | None
    request: str | None
    start_ns: int
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class SpanRecorder:
    """Collects a tree of spans; the open span is the parent of the next."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            span_id=len(self.spans),
            name=name,
            parent=parent.span_id if parent else None,
            request=request,
            start_ns=time.perf_counter_ns(),
        )
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._open.pop()

    def seconds(self, name: str) -> float:
        """Total duration of every span called ``name``."""
        return sum(s.duration_ns for s in self.spans if s.name == name) / 1e9

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self_times_ns(self.spans)
        rows = [dict(asdict(s), self_ns=selfs[s.span_id]) for s in self.spans]
        path.write_text(json.dumps({"spans": rows}, indent=0))


class _Off:
    """The recorder of the timed runs: same call sites, no spans."""

    enabled = False
    _nothing = nullcontext()

    def span(self, name: str, request: str | None = None):
        return self._nothing


OFF = _Off()


def self_times_ns(spans: list[Span]) -> dict[int, int]:
    """Self time per span: its duration minus the part of that interval its
    direct children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out: dict[int, int] = {}
    for span in spans:
        covered = 0
        cursor = span.start_ns
        for child in sorted(children.get(span.span_id, []), key=lambda s: s.start_ns):
            start = max(child.start_ns, cursor)
            end = min(child.end_ns, span.end_ns)
            if end > start:
                covered += end - start
                cursor = end
        out[span.span_id] = span.duration_ns - covered
    return out
