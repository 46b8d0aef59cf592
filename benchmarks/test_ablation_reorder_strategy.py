"""Ablation: reordering strategy (original vs greedy vs forward-looking),
including the diagonal-commutation DAG relaxation (extension).

The paper compares greedy and forward-looking on involvement curves
(Fig. 9); this bench prices the end-to-end effect of each strategy, plus
our DAG-relaxation extension that lets mutually commuting diagonal gates
reorder freely.
"""

from repro.analysis.tables import format_table
from repro.circuits.library import get_circuit
from repro.core.executor import TimedExecutor
from repro.core.reorder import reorder
from repro.core.simulator import QGpuSimulator
from repro.core.versions import PRUNING, VersionConfig
from repro.hardware.machine import Machine
from repro.hardware.specs import PAPER_MACHINE

NUM_QUBITS = 32
FAMILIES = ("gs", "qft", "qaoa", "iqp")


def run_ablation() -> dict[tuple[str, str], float]:
    executor = TimedExecutor(Machine(PAPER_MACHINE))
    results: dict[tuple[str, str], float] = {}
    for family in FAMILIES:
        circuit = get_circuit(family, NUM_QUBITS)
        for strategy in ("original", "greedy", "forward_looking"):
            config = VersionConfig(
                f"Pruning+{strategy}", dynamic_allocation=True, overlap=True,
                pruning="involvement", reorder_strategy=strategy,
            )
            results[(family, strategy)] = executor.execute(
                circuit, config
            ).total_seconds
        # DAG relaxation: reorder with commuting diagonals, price as pruning.
        relaxed = reorder(circuit, "forward_looking", commute_diagonals=True)
        results[(family, "relaxed_dag")] = executor.execute(
            relaxed, PRUNING
        ).total_seconds
    return results


def test_ablation_reorder_strategy(benchmark) -> None:
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    strategies = ("original", "greedy", "forward_looking", "relaxed_dag")
    rows = [
        [family] + [results[(family, s)] for s in strategies]
        for family in FAMILIES
    ]
    print()
    print(format_table(["circuit"] + list(strategies), rows,
                       title=f"[ablation] reorder strategies at {NUM_QUBITS}q (s)"))
    for family in FAMILIES:
        original = results[(family, "original")]
        forward = results[(family, "forward_looking")]
        # Forward-looking never loses to the original order.
        assert forward <= original * 1.001, family
        # The relaxed DAG can only open more freedom.
        assert results[(family, "relaxed_dag")] <= forward * 1.05, family
    # gs and qft benefit enormously; qaoa barely (paper Fig. 9).
    for family in ("gs", "qft"):
        assert results[(family, "forward_looking")] < 0.3 * results[(family, "original")]
    assert results[("qaoa", "forward_looking")] > 0.5 * results[("qaoa", "original")]
