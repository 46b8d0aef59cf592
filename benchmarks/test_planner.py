"""Measured planner benchmark: selection accuracy and speedup vs always-dense.

For each benchmark circuit the adaptive planner (``repro.planner.plan``)
picks a backend; this benchmark then *measures* every feasible backend of
``auto``'s pool (:data:`repro.planner.AUTO_BACKENDS`) on the same circuit
in the same process and scores the planner two ways:

* **selection accuracy** - the fraction of circuits where the planner's
  pick is (within a noise tolerance) the measured-fastest feasible
  backend.  A pick counts as correct when its measured time is within
  ``TOLERANCE`` of the fastest, so near-ties at a crossover width do not
  flap the gate.
* **geomean speedup vs always-dense** - wall-clock of the planner's
  chosen backend against the dense complex128 engine on every circuit.
  The recipe only pays off if this exceeds 1.  Planning itself (feature
  analysis + pricing, dominated by the bounded sparse probe) is timed and
  reported separately as ``plan_seconds``: it is a per-circuit one-off
  that amortises over shots and re-runs, and at benchmark widths it is
  the same order as an entire sub-millisecond dense simulation, so
  folding it into the per-run ratio would measure the probe, not the
  routing.  ``auto_seconds`` (a full ``backend="auto"`` run, planning
  included) is recorded too so the overhead stays visible.

The circuit set spans the planner's routing space: pure-Clifford families
(``bv``/``gs``/``hlf`` - tableau wins), support-sparse ``w`` states
(hash-map wins), and dense families (``qft``/``rqc``/``qaoa``/``iqp`` -
the chunked engine wins, in complex64 when the norm guard allows).

Results are printed and written to ``BENCH_planner.json``;
``benchmarks/check_planner_regression.py`` gates on accuracy >= 0.8 and
geomean speedup > 1.  Set ``QGPU_BENCH_SMOKE=1`` for a fast CI-sized run
(narrower circuits, fewer repeats).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.circuits.library import get_circuit
from repro.core.simulator import QGpuSimulator
from repro.planner import (
    AUTO_BACKENDS,
    DEFAULT_CONFIG,
    all_backend_costs,
    analyze_circuit,
    plan,
)

SMOKE = os.environ.get("QGPU_BENCH_SMOKE", "") not in ("", "0")

# Best-of-N wall-clock per backend; ratios of minima are what we gate on.
REPEATS = 2 if SMOKE else 5

#: (family, full-mode width, smoke-mode width, backend the planner must pick).
CASES = (
    ("bv", 16, 12, "stabilizer"),
    ("gs", 16, 12, "stabilizer"),
    ("hlf", 16, 12, "stabilizer"),
    ("w", 14, 10, "sparse"),
    ("w", 16, 12, "sparse"),
    ("qft", 11, 9, "statevector"),
    ("rqc", 10, 8, "statevector"),
    ("qaoa", 12, 10, "statevector"),
    ("iqp", 11, 9, "statevector"),
)

#: A pick is "correct" when its measured time is within this factor of the
#: measured-fastest feasible backend (absorbs timing noise at crossovers).
TOLERANCE = 1.3

RESULTS_PATH = Path("BENCH_planner.json")


def _time_run(simulator: QGpuSimulator, circuit) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        simulator.run(circuit)
        best = min(best, time.perf_counter() - start)
    return best


def _measure_case(family: str, qubits: int, expected: str) -> dict:
    circuit = get_circuit(family, qubits)
    plan_best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        chosen = plan(circuit, DEFAULT_CONFIG)
        plan_best = min(plan_best, time.perf_counter() - start)
    features = analyze_circuit(circuit)
    measured: dict[str, float] = {}
    for cost in all_backend_costs(features, backends=AUTO_BACKENDS):
        if not cost.feasible:
            continue
        measured[cost.backend] = _time_run(
            QGpuSimulator(backend=cost.backend), circuit
        )
    fastest = min(measured, key=measured.get)
    correct = measured[chosen.backend] <= TOLERANCE * measured[fastest]
    auto_seconds = _time_run(
        QGpuSimulator(backend="auto", precision="auto"), circuit
    )
    dense_seconds = measured["statevector"]
    return {
        "circuit": circuit.name,
        "selected": chosen.backend,
        "selected_precision": chosen.precision,
        "expected": expected,
        "fastest_measured": fastest,
        "correct": correct,
        "measured_seconds": measured,
        "plan_seconds": plan_best,
        "auto_seconds": auto_seconds,
        "dense_seconds": dense_seconds,
        "speedup_vs_dense": dense_seconds / measured[chosen.backend],
    }


def test_planner_selection_and_speedup():
    cases = []
    for family, full_width, smoke_width, expected in CASES:
        qubits = smoke_width if SMOKE else full_width
        cases.append(_measure_case(family, qubits, expected))

    accuracy = sum(case["correct"] for case in cases) / len(cases)
    product = 1.0
    for case in cases:
        product *= case["speedup_vs_dense"]
    geomean = product ** (1.0 / len(cases))

    payload = {
        "mode": "smoke" if SMOKE else "full",
        "repeats": REPEATS,
        "tolerance": TOLERANCE,
        "accuracy": accuracy,
        "geomean_speedup_vs_dense": geomean,
        "cases": cases,
    }
    RESULTS_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")

    print()
    print(f"{'circuit':<10} {'selected':<12} {'fastest':<12} "
          f"{'ok':<3} {'vs dense':>9} {'plan ms':>8}")
    for case in cases:
        print(f"{case['circuit']:<10} {case['selected']:<12} "
              f"{case['fastest_measured']:<12} "
              f"{'yes' if case['correct'] else 'NO':<3} "
              f"{case['speedup_vs_dense']:>8.2f}x "
              f"{case['plan_seconds'] * 1e3:>7.2f}")
    print(f"selection accuracy : {accuracy:.0%}")
    print(f"geomean vs dense   : {geomean:.2f}x")

    # The planner must route the paper's Clifford and sparse families off
    # the dense engine regardless of local timing noise.
    for case in cases:
        if case["expected"] != "statevector":
            assert case["selected"] == case["expected"], (
                f"{case['circuit']}: planner chose {case['selected']}, "
                f"expected {case['expected']}"
            )
    assert accuracy >= 0.8, f"selection accuracy {accuracy:.0%} below 80%"
    assert geomean > 1.0, f"geomean speedup {geomean:.2f}x not above 1"
