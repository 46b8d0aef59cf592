"""Hypothesis strategies shared across the suite: random circuits over the
engine's whole gate set."""

from __future__ import annotations

from typing import Collection

from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATE_SPECS, Gate

ANGLES = st.floats(min_value=-3.2, max_value=3.2, allow_nan=False)


@st.composite
def gates(draw, num_qubits: int, names: Collection[str] | None = None) -> Gate:
    """One gate of any kind (or of ``names``) that fits ``num_qubits``."""
    name = draw(
        st.sampled_from(
            sorted(
                n
                for n, spec in GATE_SPECS.items()
                if spec.num_qubits <= num_qubits and (names is None or n in names)
            )
        )
    )
    spec = GATE_SPECS[name]
    qubits = draw(
        st.lists(
            st.integers(0, num_qubits - 1),
            min_size=spec.num_qubits,
            max_size=spec.num_qubits,
            unique=True,
        )
    )
    params = tuple(draw(ANGLES) for _ in range(spec.num_params))
    return Gate(name, tuple(qubits), params)


@st.composite
def circuits(
    draw,
    min_qubits: int = 6,
    max_qubits: int = 10,
    min_gates: int = 1,
    max_gates: int = 40,
    names: Collection[str] | None = None,
) -> QuantumCircuit:
    """A random circuit of ``min_qubits``-``max_qubits`` qubits, drawing its
    gates from ``names`` when given."""
    num_qubits = draw(st.integers(min_qubits, max_qubits))
    drawn = draw(
        st.lists(gates(num_qubits, names), min_size=min_gates, max_size=max_gates)
    )
    return QuantumCircuit(num_qubits, name=f"random_{num_qubits}").extend(drawn)
