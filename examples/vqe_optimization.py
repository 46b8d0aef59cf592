"""Variational quantum eigensolver on the exact simulator.

Minimises the energy of a transverse-field Ising chain
``H = -J sum Z_i Z_{i+1} - h sum X_i`` with a hardware-efficient ansatz,
closing the loop the paper's hchain benchmark motivates: circuits like
these are what a simulator exists to iterate on.

Run with:  python examples/vqe_optimization.py
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import minimize

from repro.circuits.circuit import QuantumCircuit
from repro.statevector import simulate
from repro.statevector.expectation import Observable, apply_pauli

NUM_QUBITS = 6
LAYERS = 2
COUPLING = 1.0
FIELD = 0.7


def ising_observable() -> Observable:
    terms: dict[str, float] = {}
    for q in range(NUM_QUBITS - 1):
        terms[f"Z{q} Z{q + 1}"] = -COUPLING
    for q in range(NUM_QUBITS):
        terms[f"X{q}"] = -FIELD
    return Observable.from_dict(terms)


def ansatz(parameters: np.ndarray) -> QuantumCircuit:
    """Hardware-efficient ansatz: ry/rz layers with CX ladders."""
    circuit = QuantumCircuit(NUM_QUBITS, name="vqe_ansatz")
    index = 0
    for _ in range(LAYERS):
        for q in range(NUM_QUBITS):
            circuit.ry(float(parameters[index]), q)
            index += 1
        for q in range(NUM_QUBITS - 1):
            circuit.cx(q, q + 1)
        for q in range(NUM_QUBITS):
            circuit.rz(float(parameters[index]), q)
            index += 1
    return circuit


def exact_ground_energy(observable: Observable) -> float:
    """Diagonalise H exactly for the reference (6 qubits: 64x64)."""
    dim = 1 << NUM_QUBITS
    hamiltonian = np.zeros((dim, dim), dtype=np.complex128)
    basis = np.eye(dim, dtype=np.complex128)
    for coeff, string in observable.terms:
        for k in range(dim):
            hamiltonian[:, k] += coeff * apply_pauli(basis[k], string)
    return float(np.linalg.eigvalsh(hamiltonian)[0])


def main() -> None:
    observable = ising_observable()
    reference = exact_ground_energy(observable)
    print(f"transverse-field Ising chain, {NUM_QUBITS} sites, "
          f"J={COUPLING}, h={FIELD}")
    print(f"exact ground energy: {reference:.6f}\n")

    rng = np.random.default_rng(7)
    initial = rng.uniform(-0.3, 0.3, size=2 * NUM_QUBITS * LAYERS)
    evaluations = 0

    def energy(parameters: np.ndarray) -> float:
        nonlocal evaluations
        evaluations += 1
        state = simulate(ansatz(parameters))
        return observable.expectation(state.amplitudes)

    initial_energy = energy(initial)
    result = minimize(energy, initial, method="COBYLA",
                      options={"maxiter": 250, "rhobeg": 0.4})
    final_energy = float(result.fun)

    print(f"initial energy : {initial_energy:10.6f}")
    print(f"VQE energy     : {final_energy:10.6f} "
          f"({evaluations} circuit evaluations)")
    print(f"exact energy   : {reference:10.6f}")
    gap = final_energy - reference
    print(f"gap to exact   : {gap:10.6f} "
          f"({gap / abs(reference):.1%} relative)")
    assert final_energy < initial_energy - 0.5, "optimisation made no progress"


if __name__ == "__main__":
    main()
