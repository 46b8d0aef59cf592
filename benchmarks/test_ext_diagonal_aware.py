"""Extension bench: diagonal-aware pruning (beyond the paper).

A diagonal gate multiplies amplitudes by phases; it can never turn a zero
amplitude non-zero.  Algorithm 1 nevertheless marks its qubits involved,
inflating the live set permanently.  Tracking involvement only for
non-diagonal gates is strictly tighter and still sound (the functional
engine verifies bit-identical results in the test suite).

The effect is surgical: qft (controlled-phase ladders) collapses to nearly
free even in *original* gate order, while Hadamard-driven circuits are
untouched.
"""

from repro.analysis.tables import format_table
from repro.circuits.library import FAMILIES, get_circuit
from repro.core.simulator import QGpuSimulator
from repro.core.versions import PRUNING, VersionConfig

DIAGONAL_AWARE = VersionConfig(
    "Pruning+diag", dynamic_allocation=True, overlap=True, pruning="diagonal",
)
NUM_QUBITS = 32


def run_ablation() -> dict[str, tuple[float, float]]:
    results = {}
    for family in FAMILIES:
        circuit = get_circuit(family, NUM_QUBITS)
        paper = QGpuSimulator(version=PRUNING).estimate(circuit).total_seconds
        aware = QGpuSimulator(version=DIAGONAL_AWARE).estimate(circuit).total_seconds
        results[family] = (paper, aware)
    return results


def test_ext_diagonal_aware_pruning(benchmark) -> None:
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    rows = [
        [family, paper, aware, paper / aware]
        for family, (paper, aware) in results.items()
    ]
    print()
    print(format_table(
        ["circuit", "algorithm1_s", "diag_aware_s", "gain"],
        rows, title=f"[extension] diagonal-aware pruning at {NUM_QUBITS}q",
    ))
    # Sound: never slower.
    for family, (paper, aware) in results.items():
        assert aware <= paper * 1.001, family
    # Surgical: huge on the cp-ladder circuit, neutral on H-driven ones.
    assert results["qft"][0] / results["qft"][1] > 10
    assert results["qaoa"][0] / results["qaoa"][1] < 1.05
    assert results["gs"][0] / results["gs"][1] < 1.05
