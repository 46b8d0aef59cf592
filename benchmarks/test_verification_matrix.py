"""Verification matrix: every engine against the dense reference.

Runs each benchmark family through every applicable engine - chunked,
Q-GPU functional (pruned + reordered), sparse, MPS, stabilizer - and
prints the worst amplitude/probability deviation from the
dense reference.  This is DESIGN.md's validation strategy rendered as a
single artifact: all entries must sit at numerical noise.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.tables import format_table
from repro.circuits.library import FAMILIES, get_circuit
from repro.core.simulator import QGpuSimulator
from repro.core.versions import QGPU
from repro.mps import simulate_mps
from repro.sparse import simulate_sparse
from repro.stabilizer import is_clifford_circuit, simulate_clifford
from repro.statevector.chunks import ChunkedStateVector
from repro.statevector.expectation import PauliString, apply_pauli
from repro.statevector.state import simulate

NUM_QUBITS = 8


def run_matrix() -> dict[str, dict[str, float]]:
    results: dict[str, dict[str, float]] = {}
    for family in FAMILIES:
        circuit = get_circuit(family, NUM_QUBITS)
        dense = simulate(circuit).amplitudes
        row: dict[str, float] = {}

        chunked = ChunkedStateVector(NUM_QUBITS, 3)
        for gate in circuit:
            chunked.apply(gate)
        row["chunked"] = float(np.abs(chunked.to_dense() - dense).max())

        qgpu = QGpuSimulator(version=QGPU, chunk_bits=3).run(circuit).amplitudes
        row["qgpu"] = float(np.abs(qgpu - dense).max())

        row["sparse"] = float(
            np.abs(simulate_sparse(circuit).to_dense() - dense).max()
        )
        row["mps"] = float(np.abs(simulate_mps(circuit).to_dense() - dense).max())

        if is_clifford_circuit(circuit):
            tableau = simulate_clifford(circuit)
            worst = 0.0
            for sign, labels in tableau.stabilizer_strings():
                string = PauliString(
                    tuple((q, c) for q, c in enumerate(labels) if c != "I")
                )
                worst = max(
                    worst,
                    float(np.abs(apply_pauli(dense, string) - sign * dense).max()),
                )
            row["stabilizer"] = worst
        results[family] = row
    return results


def test_verification_matrix(benchmark) -> None:
    results = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    engines = ["chunked", "qgpu", "sparse", "mps", "stabilizer"]
    rows = []
    for family, row in results.items():
        rows.append(
            [family] + [f"{row[e]:.1e}" if e in row else "n/a" for e in engines]
        )
    print()
    print(format_table(
        ["circuit"] + engines, rows,
        title=f"[verification] max deviation from dense at {NUM_QUBITS} qubits",
    ))
    for family, row in results.items():
        for engine, error in row.items():
            assert error < 1e-9, (family, engine, error)
    # The Clifford families were checked against the tableau.
    assert "stabilizer" in results["gs"]
    assert "stabilizer" in results["hlf"]
