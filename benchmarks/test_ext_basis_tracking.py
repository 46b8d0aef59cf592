"""Extension bench: basis-tracking pruning (beyond the paper).

Generalises Algorithm 1 from one bit per qubit (involved/not) to three
states (fixed-0 / fixed-1 / free): X gates and fixed-control CX/CCX are
basis permutations that never inflate the live set, and diagonal gates are
skipped as in the diagonal-aware extension.  Soundness is proven against
real simulations in the test suite.

Expected shape: subsumes the diagonal-aware win on qft, adds a new win on
hchain (its Hartree-Fock X-preparation and fixed-control ladder steps), and
is neutral where superposition genuinely spreads (qaoa, gs).
"""

from repro.analysis.tables import format_table
from repro.circuits.library import FAMILIES, get_circuit
from repro.core.simulator import QGpuSimulator
from repro.core.versions import PRUNING, VersionConfig

DIAGONAL_AWARE = VersionConfig(
    "Pruning+diag", dynamic_allocation=True, overlap=True, pruning="diagonal",
)
BASIS_TRACKING = VersionConfig(
    "Pruning+basis", dynamic_allocation=True, overlap=True, pruning="basis",
)
NUM_QUBITS = 32


def run_ablation() -> dict[str, tuple[float, float, float]]:
    results = {}
    for family in FAMILIES:
        circuit = get_circuit(family, NUM_QUBITS)
        paper = QGpuSimulator(version=PRUNING).estimate(circuit).total_seconds
        diag = QGpuSimulator(version=DIAGONAL_AWARE).estimate(circuit).total_seconds
        basis = QGpuSimulator(version=BASIS_TRACKING).estimate(circuit).total_seconds
        results[family] = (paper, diag, basis)
    return results


def test_ext_basis_tracking_pruning(benchmark) -> None:
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    rows = [
        [family, paper, diag, basis, paper / basis]
        for family, (paper, diag, basis) in results.items()
    ]
    print()
    print(format_table(
        ["circuit", "algorithm1_s", "diag_aware_s", "basis_s", "gain_vs_alg1"],
        rows, title=f"[extension] basis-tracking pruning at {NUM_QUBITS}q",
    ))
    for family, (paper, diag, basis) in results.items():
        # Sound and subsuming: never slower than either predecessor.
        assert basis <= paper * 1.001, family
        assert basis <= diag * 1.01, family
    # New win on hchain (X-prep + fixed-control ladders).
    assert results["hchain"][0] / results["hchain"][2] > 1.1
    # Retains the diagonal-aware win on qft.
    assert results["qft"][0] / results["qft"][2] > 10
