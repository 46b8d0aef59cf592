"""Sampling profiler + process-memory telemetry for traced runs.

The tracer (PR 4/5) answers *which stage* is slow; this module answers
*why*: a low-overhead background sampler built entirely on the stdlib
(:func:`sys._current_frames` on a daemon :class:`threading.Thread`)
periodically snapshots every thread's python stack and attributes each
wall-clock sample to the **currently open span stage of that thread's
lane**, read racily off the tracer's open-span registry
(:meth:`~repro.obs.tracer.Tracer.open_stages`).  Aggregated samples
export two ways:

* :meth:`SamplingProfiler.folded` - the folded-stack text format
  (``lane;stage;frame;frame... count``) that Brendan Gregg's
  ``flamegraph.pl`` and every speedscope-style viewer ingest;
* :meth:`SamplingProfiler.flamegraph` - a **self-contained SVG**
  flamegraph (no javascript, no external assets; hover titles carry the
  counts) so CI can publish one artifact per traced smoke run.

Because attribution keys on the span stage, the profile's per-stage
sample shares are directly comparable with ``trace summary``'s per-stage
time shares - the acceptance check ``repro simulate --profile`` runs.

The module also hosts the process-memory read-backs the memory-telemetry
side of the observatory uses (``Tracer(memory=True)`` records them into
the ``span_peak_bytes{stage}`` histograms):

* :func:`process_rss_bytes` / :func:`process_peak_rss_bytes` - current
  and high-water resident set, read from ``/proc/self/status`` on Linux
  with a :mod:`resource`-based fallback elsewhere.

Everything here is optional machinery: a :class:`SamplingProfiler` is
only ever constructed when the caller asked for one (``repro simulate
--profile``), so the shared-NULL disabled tracing path stays untouched
and inside the <3% ``BENCH_obs.json`` overhead gate.
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path
from typing import Any, Mapping

from repro.errors import ObservabilityError

#: Stage label for samples taken while a thread had no open staged span.
UNATTRIBUTED_STAGE = "(no-span)"

#: Default sampling period: 5 ms keeps a ~1000-gate smoke run at a few
#: hundred samples for well under 1% overhead.
DEFAULT_INTERVAL = 0.005


# -- process memory read-backs -------------------------------------------------


def _proc_status_bytes(field: str) -> int | None:
    """One ``kB`` field of ``/proc/self/status``, in bytes (None off-Linux)."""
    try:
        with open("/proc/self/status", "rb") as handle:
            prefix = field.encode()
            for line in handle:
                if line.startswith(prefix):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


def _rusage_peak_bytes() -> int:
    """Peak RSS via :mod:`resource` (kilobytes on Linux, bytes on macOS)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak) if sys.platform == "darwin" else int(peak) * 1024


def process_rss_bytes() -> int:
    """Current resident set size of this process (0 when unreadable)."""
    value = _proc_status_bytes("VmRSS:")
    return value if value is not None else _rusage_peak_bytes()


def process_peak_rss_bytes() -> int:
    """High-water resident set size of this process (0 when unreadable)."""
    value = _proc_status_bytes("VmHWM:")
    return value if value is not None else _rusage_peak_bytes()


# -- the sampler ---------------------------------------------------------------


class SamplingProfiler:
    """Background wall-clock sampler attributing stacks to span stages.

    Args:
        interval: Seconds between samples (default 5 ms).
        max_depth: Frames kept per stack, innermost dropped first.
        tracer: Optional tracer to attribute samples against; normally
            installed via ``Tracer(profiler=...)``, which calls
            :meth:`attach`.

    Use as a context manager around the region to profile::

        profiler = SamplingProfiler()
        tracer = Tracer(profiler=profiler)
        with profiler:
            QGpuSimulator(tracer=tracer).run(circuit)
        profiler.write("run.profile")     # run.profile.folded + .svg
    """

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        max_depth: int = 64,
        tracer: Any = None,
    ) -> None:
        if interval <= 0:
            raise ObservabilityError(f"sampling interval must be positive, got {interval}")
        if max_depth < 1:
            raise ObservabilityError(f"max_depth must be >= 1, got {max_depth}")
        self.interval = interval
        self.max_depth = max_depth
        self.tracer = tracer
        self._lock = threading.Lock()
        self._samples: dict[tuple[str, ...], int] = {}
        self.sample_count = 0
        self.started_at: float | None = None
        self.stopped_at: float | None = None
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- wiring ----------------------------------------------------------------

    def attach(self, tracer: Any) -> None:
        """Adopt ``tracer`` as the stage-attribution source."""
        self.tracer = tracer

    def start(self) -> "SamplingProfiler":
        """Start the background sampler thread; returns self for chaining."""
        if self._thread is not None:
            raise ObservabilityError("profiler already started")
        self._stop.clear()
        self.started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._loop, name="obs-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop sampling and join the sampler thread."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self.stopped_at = time.perf_counter()

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.sample_once()
            except Exception:  # pragma: no cover - never kill the host run
                pass

    # -- sampling --------------------------------------------------------------

    def sample_once(self) -> int:
        """Take one sample of every thread; returns stacks recorded.

        Exposed so tests (and deterministic captures) can sample without
        the background thread; the sampler thread itself is excluded.
        """
        frames = sys._current_frames()
        stages: dict[int, tuple[str | None, str, str]] = {}
        if self.tracer is not None:
            try:
                stages = self.tracer.open_stages()
            except Exception:  # pragma: no cover - defensive
                stages = {}
        names = {
            thread.ident: thread.name
            for thread in threading.enumerate()
            if thread.ident is not None
        }
        me = self._thread.ident if self._thread is not None else None
        recorded = 0
        for ident, frame in frames.items():
            if ident == me:
                continue
            name = names.get(ident, str(ident))
            if name == "obs-profiler":  # pragma: no cover - covered by `me`
                continue
            lane = "main" if name == "MainThread" else name
            stage = stages.get(ident, (None, "", ""))[0] or UNATTRIBUTED_STAGE
            stack: list[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                code = frame.f_code
                module = frame.f_globals.get("__name__", "?")
                stack.append(f"{module}:{code.co_name}")
                frame = frame.f_back
                depth += 1
            stack.reverse()
            key = (lane, stage, *stack)
            with self._lock:
                self._samples[key] = self._samples.get(key, 0) + 1
            recorded += 1
        with self._lock:
            self.sample_count += 1
        return recorded

    # -- results ---------------------------------------------------------------

    @property
    def samples(self) -> dict[tuple[str, ...], int]:
        """``(lane, stage, frame...) -> count``, sorted by key."""
        with self._lock:
            return dict(sorted(self._samples.items()))

    @property
    def total_samples(self) -> int:
        """Total stack samples recorded (across all threads)."""
        with self._lock:
            return sum(self._samples.values())

    def stage_shares(self) -> dict[str, float]:
        """Fraction of stack samples per stage, descending.

        The profile-side counterpart of ``trace summary``'s per-stage
        time shares: on a serial traced run the two agree to sampling
        noise, which is the acceptance check ``--profile`` documents.
        """
        totals: dict[str, int] = {}
        for key, count in self.samples.items():
            totals[key[1]] = totals.get(key[1], 0) + count
        grand = sum(totals.values())
        if not grand:
            return {}
        return {
            stage: count / grand
            for stage, count in sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        }

    def folded(self) -> str:
        """Folded-stack export: one ``lane;stage;frames... count`` per line."""
        lines = [
            ";".join(key) + f" {count}" for key, count in self.samples.items()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def flamegraph(self, title: str = "repro profile") -> str:
        """Self-contained SVG flamegraph of the aggregated samples."""
        return render_flamegraph(self.samples, title=title)

    def write(self, base: str | Path) -> tuple[Path, Path]:
        """Write ``<base>.folded`` and ``<base>.svg``; returns both paths."""
        base = Path(base)
        folded_path = base.with_name(base.name + ".folded")
        svg_path = base.with_name(base.name + ".svg")
        folded_path.write_text(self.folded())
        svg_path.write_text(self.flamegraph(title=base.name))
        return folded_path, svg_path


# -- flamegraph rendering ------------------------------------------------------

#: Fixed fill per taxonomy stage (matches the docs' stage colors); frames
#: below the stage row hash onto the warm palette.
_STAGE_COLORS = {
    "transpile": "#8e7cc3",
    "fuse": "#a64d79",
    "plan": "#674ea7",
    "schedule": "#6fa8dc",
    "prune": "#76a5af",
    "h2d": "#f6b26b",
    "compute": "#e06666",
    "codec": "#ffd966",
    "d2h": "#f9cb9c",
    "retry": "#cc4125",
    "checkpoint": "#93c47d",
    "integrity": "#b6d7a8",
    "other": "#cccccc",
    UNATTRIBUTED_STAGE: "#d9d9d9",
}

_FRAME_COLORS = ("#fa7a50", "#f0944e", "#e8ab55", "#de6b50", "#f28b63",
                 "#e89a4e", "#f4a261", "#e76f51")

_ROW_HEIGHT = 17
_WIDTH = 1200
_FONT = 11


class _Node:
    __slots__ = ("name", "value", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.children: dict[str, _Node] = {}

    def child(self, name: str) -> "_Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _Node(name)
        return node


def _frame_color(name: str, depth: int) -> str:
    if depth == 1 and name in _STAGE_COLORS:
        return _STAGE_COLORS[name]
    if depth == 0:
        return "#a2c4c9"
    # Stable hash (not ``hash()``: PYTHONHASHSEED varies) for determinism.
    digest = 0
    for char in name:
        digest = (digest * 131 + ord(char)) & 0xFFFFFFFF
    return _FRAME_COLORS[digest % len(_FRAME_COLORS)]


def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def render_flamegraph(
    samples: Mapping[tuple[str, ...], int], title: str = "repro profile"
) -> str:
    """Render folded samples as a deterministic, dependency-free SVG.

    The layout is a top-down icicle: row 0 is the lane, row 1 the stage,
    deeper rows the python frames.  Rect widths are proportional to
    sample counts; hover ``<title>`` elements carry name, count, and
    share, so the file needs no scripts to be explorable.
    """
    root = _Node("all")
    for key, count in sorted(samples.items()):
        root.value += count
        node = root
        for part in key:
            node = node.child(part)
            node.value += count
    total = root.value
    parts: list[str] = []
    max_depth = [0]

    def emit(node: _Node, x: float, depth: int) -> None:
        max_depth[0] = max(max_depth[0], depth)
        width = _WIDTH * node.value / total if total else 0.0
        y = depth * _ROW_HEIGHT
        share = node.value / total if total else 0.0
        label = _escape(node.name)
        parts.append(
            f'<g><title>{label} ({node.value} sample(s), {share:.1%})</title>'
            f'<rect x="{x:.2f}" y="{y}" width="{max(width, 0.4):.2f}" '
            f'height="{_ROW_HEIGHT - 1}" fill="{_frame_color(node.name, depth)}" '
            f'rx="1"/>'
        )
        if width > 40:
            text = label if len(label) * 7 < width else label[: max(1, int(width // 7))]
            parts.append(
                f'<text x="{x + 3:.2f}" y="{y + _ROW_HEIGHT - 5}" '
                f'font-size="{_FONT}" font-family="monospace">{text}</text>'
            )
        parts.append("</g>")
        cursor = x
        for child in sorted(node.children.values(), key=lambda n: (-n.value, n.name)):
            emit(child, cursor, depth + 1)
            cursor += _WIDTH * child.value / total if total else 0.0

    if total:
        emit(root, 0.0, 0)
    height = (max_depth[0] + 2) * _ROW_HEIGHT + 24
    header = (
        f'<text x="4" y="{(max_depth[0] + 1) * _ROW_HEIGHT + 16}" '
        f'font-size="{_FONT + 1}" font-family="monospace">'
        f'{_escape(title)}: {total} sample(s)</text>'
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_WIDTH} {height}">'
        f'<rect width="100%" height="100%" fill="#ffffff"/>'
        + "".join(parts)
        + header
        + "</svg>\n"
    )
