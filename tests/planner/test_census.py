"""Backend census: which backend ``auto`` picks for every registered generator.

The census is what keeps ``auto``'s candidate pool honest
(``docs/planner.md``, "Backend census").  Over every generator in
``BUILDERS`` at 8, 16 and 24 qubits, ``auto`` picks the stabilizer tableau
for the pure-Clifford families, the hash-map engine for the W state alone,
and the dense engine for everything else; MPS is never chosen.  Grover
runs at 6 and 8 qubits only: its oracle decomposition grows too fast
(``grover_10`` already has 438 410 gates).

MPS re-enters ``auto`` only with a generator on which it beats every exact
feasible backend by at least 2x end to end, pinned here.
"""

from __future__ import annotations

import pytest

from repro.circuits.library import get_circuit
from repro.circuits.library.registry import BUILDERS
from repro.planner import DEFAULT_CONFIG, plan

CLIFFORD_FAMILIES = frozenset({"bv", "gs", "hlf", "ghz"})
SPARSE_FAMILIES = frozenset({"w"})

CASES = [
    (family, qubits)
    for family in sorted(BUILDERS)
    for qubits in ((6, 8) if family == "grover" else (8, 16, 24))
]


def _expected(family: str) -> str:
    if family in CLIFFORD_FAMILIES:
        return "stabilizer"
    if family in SPARSE_FAMILIES:
        return "sparse"
    return "statevector"


@pytest.mark.parametrize("family,qubits", CASES)
def test_auto_backend_census(family: str, qubits: int) -> None:
    chosen = plan(get_circuit(family, qubits), DEFAULT_CONFIG)
    assert chosen.backend == _expected(family)
    assert chosen.backend != "mps"
