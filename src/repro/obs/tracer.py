"""Nested-span tracer with per-thread lanes and a fixed stage taxonomy.

A :class:`Tracer` records where time goes in a *real* execution - the
functional simulator, the parallel chunk engine, the reliability retry
path, the batch service - as nested spans::

    with tracer.span("run", circuit="bv_12"):
        with tracer.span("reorder", stage="transpile"):
            ...
        with tracer.span("apply:h", stage="compute", gate=3):
            ...

Each span lands on a **lane** (one per thread by default, so chunk-worker
threads get their own rows in the trace viewer), carries a **stage** from
the taxonomy below, and nests under the innermost open span of its thread
(or an explicit cross-thread ``parent``).

The stage taxonomy deliberately matches the DES model's resource names
(:mod:`repro.core.detailed` schedules ``h2d`` / ``gpu`` / ``d2h`` tasks;
:func:`stage_for_resource` maps them in), so the measured breakdown of a
traced run is directly comparable with the simulated breakdowns behind
Fig. 2/4/6.

Disabled tracing is near-free: ``Tracer(enabled=False).span(...)`` returns
a shared no-op context manager without touching the clock, and the module
singleton :data:`NULL_TRACER` lets call sites skip counter bookkeeping
entirely (``tracer is not NULL_TRACER``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ObservabilityError
from repro.obs.clock import WallClock
from repro.obs.counters import CounterRegistry

#: The span taxonomy.  ``h2d`` / ``compute`` / ``codec`` / ``d2h`` are the
#: paper's Fig. 2 stages; the rest cover the runtime around the kernels.
STAGES: tuple[str, ...] = (
    "transpile",   # reordering, decomposition, merge/cancel passes
    "fuse",        # gate-fusion slab construction (statevector.fusion)
    "plan",        # backend/precision planning (feature + cost analysis)
    "schedule",    # service dispatch / queue ordering
    "prune",       # Algorithm 1 bookkeeping and live-set filtering
    "h2d",         # host-to-device chunk transfers
    "compute",     # gate kernels (chunk updates)
    "codec",       # GFC compress / decompress
    "d2h",         # device-to-host chunk transfers
    "retry",       # reliability recovery (retransmission, backoff)
    "checkpoint",  # checkpoint write / resume load
    "integrity",   # CRC and norm-conservation guards
    "other",       # attributed but uncategorised work
)

#: DES-model resource name -> taxonomy stage.  Every resource the event
#: engine schedules must map here, which a test enforces.  Multi-device
#: schedules namespace their resources by device (``gpu1:h2d``); the
#: lookup strips that prefix, so the taxonomy stays device-agnostic.
DES_RESOURCE_STAGES: dict[str, str] = {
    "h2d": "h2d",
    "gpu": "compute",
    "d2h": "d2h",
    "cpu": "compute",
    "codec": "codec",
}


def stage_for_resource(resource: str) -> str | None:
    """Taxonomy stage for a DES resource name (None when unmapped).

    Device-namespaced resources (``gpu1:h2d``) map by their engine suffix.
    """
    stage = DES_RESOURCE_STAGES.get(resource)
    if stage is not None:
        return stage
    _, sep, suffix = resource.partition(":")
    if sep:
        return DES_RESOURCE_STAGES.get(suffix)
    return None


def device_for_resource(resource: str) -> str | None:
    """Device prefix of a namespaced DES resource (``gpu1:h2d`` -> ``gpu1``).

    None for un-namespaced (single-device) resources.
    """
    prefix, sep, suffix = resource.partition(":")
    if sep and suffix in DES_RESOURCE_STAGES:
        return prefix
    return None


@dataclass
class Span:
    """One completed span.

    Attributes:
        index: Stable id, assigned at span entry (parents before children).
        name: Display name.
        stage: Taxonomy stage, or None for structural spans.
        lane: Trace row (thread-derived unless overridden).
        start: Clock reading at entry.
        end: Clock reading at exit.
        parent: Index of the enclosing span (None for lane roots).
        attrs: JSON-safe key/value annotations.
    """

    index: int
    name: str
    stage: str | None
    lane: str
    start: float
    end: float
    parent: int | None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class _NullSpan:
    """Reusable no-op context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Open-span context manager; records a :class:`Span` on exit."""

    __slots__ = (
        "_tracer", "name", "stage", "lane", "parent", "attrs", "index", "start",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        stage: str | None,
        lane: str | None,
        parent: int | None,
        attrs: dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.stage = stage
        self.lane = lane
        self.parent = parent
        self.attrs = attrs
        self.index = -1
        self.start: float = 0.0

    def __enter__(self) -> "_SpanHandle":
        self._tracer._enter(self)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._tracer._exit(self)
        return False


class Tracer:
    """Collects nested spans against one clock, plus a counter registry.

    Args:
        clock: Timestamp source (default: a fresh :class:`WallClock`).
            Pass a :class:`~repro.obs.clock.LogicalClock` for byte-identical
            traces under serial (``workers=1``) schedules.
        enabled: When False, :meth:`span` is a no-op returning a shared
            null context manager; counters still work.
        counters: Registry spans and call sites count into (default: a
            fresh :class:`CounterRegistry`).
    """

    def __init__(
        self,
        clock: Any = None,
        enabled: bool = True,
        counters: CounterRegistry | None = None,
    ) -> None:
        self.enabled = enabled
        self.clock = clock if clock is not None else WallClock()
        self.counters = counters if counters is not None else CounterRegistry()
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._next_index = 0
        self._local = threading.local()

    # -- span API ------------------------------------------------------------

    def span(
        self,
        name: str,
        stage: str | None = None,
        lane: str | None = None,
        parent: int | None = None,
        **attrs: Any,
    ):
        """Open a span; use as a context manager.

        Args:
            name: Display name.
            stage: Taxonomy stage (one of :data:`STAGES`) or None.
            lane: Explicit lane; defaults to the enclosing span's lane or
                this thread's name.
            parent: Explicit parent span index for cross-thread nesting
                (e.g. a worker task parented to the coordinator's gate
                span); defaults to this thread's innermost open span.

        Raises:
            ObservabilityError: On a stage outside the taxonomy.
        """
        if not self.enabled:
            return _NULL_SPAN
        if stage is not None and stage not in STAGES:
            raise ObservabilityError(
                f"unknown stage {stage!r} (taxonomy: {', '.join(STAGES)})"
            )
        return _SpanHandle(self, name, stage, lane, parent, attrs)

    def current_parent(self) -> int | None:
        """Index of this thread's innermost open span (for cross-thread use)."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return None
        return stack[-1].index

    # -- results -------------------------------------------------------------

    @property
    def spans(self) -> list[Span]:
        """Completed spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def lanes(self) -> list[str]:
        """Lane names in deterministic (sorted, main-first) order."""
        names = {span.lane for span in self.spans}
        return sorted(names, key=lambda lane: (lane != "main", lane))

    # -- internals -----------------------------------------------------------

    def _thread_lane(self) -> str:
        name = threading.current_thread().name
        return "main" if name == "MainThread" else name

    def _enter(self, handle: _SpanHandle) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if handle.parent is None and stack:
            handle.parent = stack[-1].index
        if handle.lane is None:
            handle.lane = stack[-1].lane if stack else self._thread_lane()
        with self._lock:
            handle.index = self._next_index
            self._next_index += 1
        handle.start = self.clock.tick()
        stack.append(handle)

    def _exit(self, handle: _SpanHandle) -> None:
        end = self.clock.tick()
        stack = getattr(self._local, "stack", [])
        if stack and stack[-1] is handle:
            stack.pop()
        elif handle in stack:  # pragma: no cover - misnested exit, be safe
            stack.remove(handle)
        span = Span(
            index=handle.index,
            name=handle.name,
            stage=handle.stage,
            lane=handle.lane or "main",
            start=handle.start,
            end=end,
            parent=handle.parent,
            attrs=handle.attrs,
        )
        with self._lock:
            self._spans.append(span)


#: Shared disabled tracer: the default for every instrumented call site.
#: ``tracer is not NULL_TRACER`` is the cheap "is observability on" test.
NULL_TRACER = Tracer(enabled=False)
