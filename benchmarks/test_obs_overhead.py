"""Measured tracing overhead: disabled tracer must be near-free.

The observability layer promises that an un-traced run pays essentially
nothing for the instrumentation now wired through the simulator, engine
and kernels.  This benchmark times the same full functional simulation
three ways in one process:

* ``baseline`` - ``QGpuSimulator`` with no tracer argument (the
  :data:`~repro.obs.NULL_TRACER` default path),
* ``disabled`` - an explicit ``Tracer(enabled=False)``: counters attach
  but spans are no-ops.  The gate asserts this costs < 3% over baseline
  (best-of-N minima, so host noise cancels),
* ``enabled``  - a live :class:`~repro.obs.Tracer` with a
  :class:`~repro.obs.LogicalClock`, reported for context (not gated; a
  real trace is allowed to cost real time).

A second benchmark times the trace-analysis engine itself
(:func:`repro.obs.analyze` - rollups, critical path, overlap, top-k)
over the span list of a real traced run.

Results go to ``BENCH_obs.json``.  Set ``QGPU_BENCH_SMOKE=1`` for a
CI-sized run.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.circuits.library import get_circuit
from repro.core.simulator import QGpuSimulator
from repro.core.versions import VERSIONS_BY_NAME
from repro.obs import LogicalClock, Tracer

SMOKE = os.environ.get("QGPU_BENCH_SMOKE", "") not in ("", "0")

NUM_QUBITS = 12 if SMOKE else 16
REPEATS = 3 if SMOKE else 7
# The gate: disabled-tracer minimum over no-tracer minimum, plus a small
# absolute allowance so microsecond-scale jitter cannot fail a run whose
# absolute cost is far below a millisecond.
MAX_DISABLED_OVERHEAD = 0.03
JITTER_ALLOWANCE_S = 2e-3

# Written to the working directory, like the other BENCH_* artifacts
# (`repro bench ledger append` ingests them from there); gitignored.
RESULTS_PATH = Path("BENCH_obs.json")


def _best_of(run) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


def _update_results(fields: dict) -> None:
    payload = {}
    if RESULTS_PATH.exists():
        try:
            payload = json.loads(RESULTS_PATH.read_text())
        except (OSError, ValueError):
            payload = {}
    payload.update(fields)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_disabled_tracer_overhead() -> None:
    circuit = get_circuit("qft", NUM_QUBITS)
    version = VERSIONS_BY_NAME["Q-GPU"]

    def run(tracer: Tracer | None) -> None:
        QGpuSimulator(version=version, workers=1, tracer=tracer).run(circuit)

    run(None)  # warm caches (BLAS pools, imports) outside the timed region
    baseline_s = _best_of(lambda: run(None))
    disabled_s = _best_of(lambda: run(Tracer(enabled=False)))
    enabled_s = _best_of(lambda: run(Tracer(clock=LogicalClock())))

    overhead = disabled_s / baseline_s - 1.0
    payload = {
        "mode": "smoke" if SMOKE else "full",
        "num_qubits": NUM_QUBITS,
        "repeats": REPEATS,
        "baseline_seconds": baseline_s,
        "disabled_seconds": disabled_s,
        "enabled_seconds": enabled_s,
        "disabled_overhead": overhead,
        "enabled_overhead": enabled_s / baseline_s - 1.0,
        "max_disabled_overhead": MAX_DISABLED_OVERHEAD,
    }
    _update_results(payload)
    print(f"\n  obs overhead bench ({payload['mode']}, qft_{NUM_QUBITS})")
    print(f"  baseline {baseline_s * 1e3:8.2f} ms")
    print(f"  disabled {disabled_s * 1e3:8.2f} ms ({overhead:+.1%})")
    print(f"  enabled  {enabled_s * 1e3:8.2f} ms "
          f"({payload['enabled_overhead']:+.1%})")
    print(f"  wrote {RESULTS_PATH}")

    assert disabled_s <= baseline_s * (1 + MAX_DISABLED_OVERHEAD) + JITTER_ALLOWANCE_S, (
        f"disabled tracer costs {overhead:.1%} over the untraced baseline "
        f"(budget {MAX_DISABLED_OVERHEAD:.0%})"
    )


def test_analyzer_runtime() -> None:
    """Time the full trace-analysis pass over a real traced run."""
    from repro.obs import analyze

    circuit = get_circuit("qft", NUM_QUBITS)
    version = VERSIONS_BY_NAME["Q-GPU"]
    tracer = Tracer(clock=LogicalClock())
    QGpuSimulator(version=version, workers=1, tracer=tracer).run(circuit)
    spans = tracer.spans
    analyze(spans)  # warm
    analyze_s = _best_of(lambda: analyze(spans))

    fields = {
        "analyzer_span_count": len(spans),
        "analyzer_seconds": analyze_s,
        "analyzer_spans_per_second": (
            len(spans) / analyze_s if analyze_s > 0 else None
        ),
    }
    _update_results(fields)
    print(f"\n  trace analyzer: {len(spans)} spans in {analyze_s * 1e3:.2f} ms")
    print(f"  wrote {RESULTS_PATH}")

    # Sanity floor, not a perf gate: analysis of a modest trace must not
    # take longer than the simulation it describes typically does.
    assert analyze_s < 5.0

