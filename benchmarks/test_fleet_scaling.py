"""Fleet scaling sweep and multi-GPU communication-identity bench.

Two benchmarks backing the fleet observatory:

* ``test_scaling_sweep`` runs the ``fleet`` experiment (strong + weak
  sweeps over 2-64 devices on the V100 server; ``QGPU_BENCH_SMOKE=1``
  switches to the 2-8 device smoke grid) and writes every per-row metric
  to ``BENCH_fleet.json`` for the perf ledger,
* ``test_comm_matrix_identity`` runs the chunk-granular DES executor on
  four devices and asserts the trace-side communication matrix built by
  :func:`repro.obs.fleet.fleet_analysis` reproduces the executor's own
  transfer accounting *exactly* (byte counts are integers, so float64
  sums are exact), and that per-device busy time reconciles with the
  aggregate stage rollup.

Results go to ``BENCH_fleet.json``; ``check_bench_regression.py`` gates
the identity fields and the ledger tracks the sweep over time.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

from repro.core.detailed import DetailedExecutor
from repro.core.versions import OVERLAP
from repro.experiments import run_experiment
from repro.experiments.common import cached_circuit
from repro.hardware.machine import Machine
from repro.hardware.specs import MULTI_V100_MACHINE
from repro.hardware.trace import to_chrome_trace
from repro.obs.analyze import stage_rollups
from repro.obs.export import spans_from_events
from repro.obs.fleet import fleet_analysis

SMOKE = os.environ.get("QGPU_BENCH_SMOKE", "") not in ("", "0")

# The identity check's DES knobs (chunk-count cap is 1024, same as the
# executor's own tests and the fig19 fleet telemetry).
IDENTITY_QUBITS = 20
IDENTITY_CHUNK_BITS = 14
IDENTITY_CAPACITY = 1 << 22
IDENTITY_DEVICES = 4

# Written to the working directory, like the other BENCH_* artifacts
# (`repro bench ledger append` ingests them from there); gitignored.
RESULTS_PATH = Path("BENCH_fleet.json")


def _update_results(fields: dict) -> None:
    payload = {}
    if RESULTS_PATH.exists():
        try:
            payload = json.loads(RESULTS_PATH.read_text())
        except (OSError, ValueError):
            payload = {}
    payload.update(fields)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def test_scaling_sweep() -> None:
    start = time.perf_counter()
    result = run_experiment("fleet")
    sweep_s = time.perf_counter() - start

    strong = result.data["strong"]
    weak = result.data["weak"]
    assert strong and weak
    for row in strong:
        assert row["seconds"] > 0
        assert row["speedup"] > 0
    for row in weak:
        assert row["seconds"] > 0
        assert row["weak_efficiency"] > 0
    # Strong scaling must help at the largest device count for every
    # family.  No linearity/efficiency<=1 gate: once aggregate GPU memory
    # holds the whole state the streaming term vanishes and the model
    # legitimately goes superlinear.
    max_d = max(row["devices"] for row in strong)
    for row in strong:
        if row["devices"] == max_d:
            assert row["speedup"] > 1.0, (
                f"{row['family']} shows no strong-scaling win at "
                f"{max_d} devices ({row['speedup']:.2f}x)"
            )

    payload = {
        "mode": result.data["mode"],
        "machine": result.data["machine"],
        "device_counts": result.data["device_counts"],
        "sweep_wall_seconds": sweep_s,
        "strong": strong,
        "weak": weak,
    }
    _update_results(payload)
    print(f"\n  fleet sweep ({payload['mode']}): "
          f"{len(strong)} strong + {len(weak)} weak rows in {sweep_s:.2f} s")
    for row in strong:
        if row["devices"] == max_d:
            print(f"  strong {row['family']:>10} x{max_d}: "
                  f"{row['speedup']:6.2f}x (eff {row['efficiency']:.2f})")
    print(f"  wrote {RESULTS_PATH}")


def test_comm_matrix_identity() -> None:
    executor = DetailedExecutor(
        Machine(MULTI_V100_MACHINE),
        chunk_bits=IDENTITY_CHUNK_BITS,
        capacity_bytes=IDENTITY_CAPACITY,
        devices=IDENTITY_DEVICES,
    )
    run = executor.execute(cached_circuit("qft", IDENTITY_QUBITS), OVERLAP)

    events = to_chrome_trace(run.timeline, time_scale=1.0)
    spans = spans_from_events(events)
    start = time.perf_counter()
    fa = fleet_analysis(spans)
    analysis_s = time.perf_counter() - start

    des_bytes = run.bytes_h2d + run.bytes_d2h
    # Exact identity, not approximate: integer byte counts sum without
    # rounding in float64, so any drift means dropped or double-counted
    # transfer spans.
    assert fa.total_bytes == des_bytes, (
        f"comm matrix total {fa.total_bytes} != DES transfers {des_bytes}"
    )
    trace_matrix = {
        (src, dst): value
        for src, row in fa.comm_matrix.items()
        for dst, value in row.items()
    }
    assert trace_matrix == dict(run.transfers)

    # Per-device busy must reconcile with the aggregate stage rollup:
    # summing each stage over devices reproduces the global totals.
    rollup = {stage: r.total for stage, r in stage_rollups(spans).items()}
    per_device = {}
    for stats in fa.devices:
        for stage, total in stats.stages.items():
            per_device[stage] = per_device.get(stage, 0.0) + total
    for stage, total in per_device.items():
        assert math.isclose(total, rollup.get(stage, 0.0), rel_tol=1e-9), (
            f"stage {stage}: device sum {total} != rollup {rollup.get(stage)}"
        )

    assert len(fa.devices) == IDENTITY_DEVICES
    assert fa.imbalance >= 1.0

    fields = {
        "identity_devices": IDENTITY_DEVICES,
        "identity_qubits": IDENTITY_QUBITS,
        "comm_bytes_total": fa.total_bytes,
        "des_transfer_bytes": des_bytes,
        "comm_identity_exact": fa.total_bytes == des_bytes,
        "load_imbalance": fa.imbalance,
        "fleet_span_count": fa.span_count,
        "fleet_analysis_seconds": analysis_s,
        "makespan_seconds": run.makespan,
    }
    _update_results(fields)
    print(f"\n  comm identity (qft_{IDENTITY_QUBITS}, "
          f"x{IDENTITY_DEVICES}): {des_bytes:.0f} bytes, "
          f"imbalance {fa.imbalance:.3f}, "
          f"analysis {analysis_s * 1e3:.1f} ms over {fa.span_count} spans")
    print(f"  wrote {RESULTS_PATH}")
