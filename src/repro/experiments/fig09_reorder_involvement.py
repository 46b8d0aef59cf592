"""Fig. 9 - qubit involvement during simulation under the three orders.

Paper finding (22-qubit circuits): forward-looking reordering delays
involvement the most; greedy helps qft_22 but can be *worse* than the
original order for gs_22; neither helps qaoa_22 (dense dependencies).
"""

from __future__ import annotations

from repro.analysis.asciiplot import line_plot
from repro.circuits.circuit import QuantumCircuit
from repro.core.liveness import involvement_trace, live_fraction_trace
from repro.core.reorder import reorder
from repro.experiments.base import ExperimentResult, register
from repro.experiments.common import cached_circuit

CIRCUITS = ("gs", "qft", "qaoa")
STRATEGIES = ("original", "greedy", "forward_looking")


def involvement_summary(circuit: QuantumCircuit) -> tuple[int, float]:
    """(gates until full involvement, mean live-amplitude fraction)."""
    trace = live_fraction_trace(circuit)
    full = circuit.gates_until_full_involvement()
    mean_live = sum(trace) / len(trace) if trace else 1.0
    return full, mean_live


@register("fig9")
def run(num_qubits: int = 22) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig9",
        title=f"Qubit involvement under reordering ({num_qubits} qubits)",
        headers=[
            "circuit", "order", "ops_to_full_involvement", "mean_live_fraction",
        ],
    )
    summaries: dict[tuple[str, str], tuple[int, float]] = {}
    for family in CIRCUITS:
        base = cached_circuit(family, num_qubits)
        curves: dict[str, list[float]] = {}
        for strategy in STRATEGIES:
            ordered = reorder(base, strategy)
            full, mean_live = involvement_summary(ordered)
            summaries[(family, strategy)] = (full, mean_live)
            curves[strategy] = [
                float(mask.bit_count()) for mask in involvement_trace(ordered)
            ]
            result.rows.append(
                [f"{family}_{num_qubits}", strategy, full, mean_live]
            )
        result.notes.append(f"{family}_{num_qubits} involvement curves:")
        result.notes.extend(
            line_plot(
                curves, y_max=float(num_qubits),
                x_label="gates executed ->",
            ).splitlines()
        )
    result.data["summaries"] = summaries
    result.notes.append(
        "paper: forward-looking delays involvement most for gs/qft; "
        "qaoa is reorder-resistant"
    )
    return result
