"""The three simulation paradigms of the paper's Section II-B, side by side.

Runs the same circuits through the Schroedinger (dense), stabilizer
(Aaronson-Gottesman tableau) and tensor-network (MPS) engines, showing
where each wins - and cross-checking that they agree.  The MPS engine is
exact: it answers with the dense state or refuses.

Run with:  python examples/simulator_taxonomy.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.circuits.library import get_circuit
from repro.circuits.library.extensions import ghz
from repro.mps import simulate_mps
from repro.stabilizer import is_clifford_circuit, simulate_clifford
from repro.statevector import simulate
from repro.statevector.expectation import PauliString, apply_pauli


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def main() -> None:
    print("1. Schroedinger vs stabilizer on a Clifford circuit (gs_16)")
    circuit = get_circuit("gs", 16)
    assert is_clifford_circuit(circuit)
    dense, t_dense = timed(simulate, circuit)
    tableau, t_tab = timed(simulate_clifford, circuit)
    print(f"   dense: {t_dense * 1000:7.1f} ms   (2^16 amplitudes)")
    print(f"   tableau: {t_tab * 1000:5.1f} ms   (O(n^2) bits)")
    # Cross-check: the dense state is fixed by every tableau stabilizer.
    for sign, labels in tableau.stabilizer_strings()[:3]:
        string = PauliString(tuple(
            (q, label) for q, label in enumerate(labels) if label != "I"
        ))
        assert np.allclose(apply_pauli(dense.amplitudes, string),
                           sign * dense.amplitudes, atol=1e-10)
    print("   first stabilizers:",
          ", ".join(f"{s:+d}{l}" for s, l in tableau.stabilizer_strings()[:3]))

    print("\n2. MPS compression (Equation 9): GHZ_18")
    state, t_mps = timed(simulate_mps, ghz(18))
    stored = sum(t.size for t in state.tensors)
    print(f"   mps: {t_mps * 1000:7.1f} ms, stores {stored} complex numbers")
    print(f"   dense would store {1 << 18} amplitudes "
          f"({(1 << 18) // stored}x more)")
    print(f"   max bond dimension: {state.max_bond_dimension()}")

    print("\n3. Where dense wins: a scrambling random circuit (rqc_12)")
    circuit = get_circuit("rqc", 12, depth=8)
    _, t_dense = timed(simulate, circuit)
    mps_state, t_mps = timed(simulate_mps, circuit)
    print(f"   dense: {t_dense * 1000:7.1f} ms")
    print(f"   mps:   {t_mps * 1000:7.1f} ms "
          f"(bond grew to {mps_state.max_bond_dimension()})")
    agreement = np.allclose(
        mps_state.to_dense(), simulate(circuit).amplitudes, atol=1e-8
    )
    print(f"   engines agree: {agreement}")


if __name__ == "__main__":
    main()
