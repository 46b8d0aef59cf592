"""Fig. 10 - residual distributions of qaoa and iqp.

Paper finding: qaoa's consecutive-amplitude residuals concentrate near zero
(highly compressible); iqp's are widely spread (poorly compressible).

The snapshot is taken 85% of the way through each circuit - inside qaoa's
cost layer, where the runtime spends ~90% of its gates; the terminal mixer
layer scrambles the state, but by then qaoa's streaming is already done.
The table also reports the per-gate mean GFC ratio (what the executor
actually uses), measured by compressing the state after every sampled gate.
"""

from __future__ import annotations

from repro.compression.gfc import compression_ratio
from repro.compression.profile import live_region, measure_profile
from repro.compression.residual import residual_stats
from repro.core.liveness import LiveTracker
from repro.experiments.base import ExperimentResult, register
from repro.experiments.common import cached_circuit
from repro.statevector.state import StateVector

CIRCUITS = ("qaoa", "iqp")
#: Snapshot inside qaoa's cost layer (before the terminal mixer scrambles
#: the state - by then its streaming is over anyway).
SNAPSHOT_FRACTION = 0.7


@register("fig10")
def run(num_qubits: int = 16) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig10",
        title=f"Residual distributions and GFC ratios ({num_qubits} qubits)",
        headers=[
            "circuit", "near_zero_residual_%", "mean_|residual|",
            "snapshot_gfc_ratio", "per_gate_mean_ratio",
        ],
    )
    stats = {}
    for family in CIRCUITS:
        circuit = cached_circuit(family, num_qubits)
        prefix = int(SNAPSHOT_FRACTION * len(circuit))
        state = StateVector(num_qubits)
        tracker = LiveTracker(num_qubits)
        for gate in list(circuit)[:prefix]:
            state.apply(gate)
            tracker.observe(gate)
        # Residuals and ratios over the live (streamed) region only; the
        # pruned all-zero remainder never reaches the compressor.
        live = live_region(state.amplitudes, tracker.involvement)
        res = residual_stats(live, tolerance=1e-3)
        snapshot_ratio = compression_ratio(live, num_segments=8)
        profile = measure_profile(family, num_qubits)
        stats[family] = (res, snapshot_ratio, profile.mean_ratio)
        result.rows.append(
            [f"{family}_{num_qubits}", 100 * res.near_zero_fraction,
             res.mean_abs, snapshot_ratio, profile.mean_ratio]
        )
    result.data["stats"] = stats
    result.notes.append(
        "paper: qaoa residuals near zero => compressible; iqp dispersed"
    )
    return result
