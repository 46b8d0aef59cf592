"""Pauli-string observables and expectation values.

Chemistry workloads (the paper's ``hchain`` motivation) evaluate energies
as ``sum_k c_k <psi| P_k |psi>`` over Pauli strings ``P_k``.  This module
evaluates such observables exactly against a state vector without building
any ``2^n x 2^n`` matrices: each string is applied as a sequence of
single-qubit kernels to a scratch copy.

A test oracle: it is the dense reference for the MPS engine's
``expectation_pauli`` and the tableau's stabilizer checks, and no front
door imports it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError
from repro.statevector.apply import apply_gate
from repro.circuits.gates import Gate

_VALID = frozenset("IXYZ")


@dataclass(frozen=True)
class PauliString:
    """A Pauli operator on named qubits, e.g. ``Z0 Z3 X5``.

    Attributes:
        paulis: Mapping qubit -> one of ``"X"``, ``"Y"``, ``"Z"`` (identity
            qubits are simply omitted).
    """

    paulis: tuple[tuple[int, str], ...]

    def __post_init__(self) -> None:
        seen = set()
        for qubit, label in self.paulis:
            if label not in _VALID or label == "I":
                raise SimulationError(f"bad Pauli label {label!r} on qubit {qubit}")
            if qubit < 0:
                raise SimulationError(f"negative qubit {qubit}")
            if qubit in seen:
                raise SimulationError(f"qubit {qubit} repeated in Pauli string")
            seen.add(qubit)

    @classmethod
    def parse(cls, text: str) -> "PauliString":
        """Parse ``"Z0 Z1 X4"``-style notation (identity = empty string)."""
        pairs = []
        for token in text.split():
            label, index = token[0].upper(), token[1:]
            if not index.isdigit():
                raise SimulationError(f"cannot parse Pauli term {token!r}")
            pairs.append((int(index), label))
        return cls(tuple(pairs))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(q for q, _ in self.paulis))

    def min_width(self) -> int:
        return 1 + max((q for q, _ in self.paulis), default=-1)

    def __str__(self) -> str:
        if not self.paulis:
            return "I"
        return " ".join(f"{label}{qubit}" for qubit, label in sorted(self.paulis))


def apply_pauli(amplitudes: np.ndarray, string: PauliString) -> np.ndarray:
    """Return ``P |psi>`` (a new array; ``amplitudes`` is untouched)."""
    result = np.array(amplitudes, dtype=np.complex128, copy=True)
    n = int(result.size).bit_length() - 1
    if string.min_width() > n:
        raise SimulationError(
            f"Pauli string {string} exceeds state width {n}"
        )
    for qubit, label in string.paulis:
        apply_gate(result, Gate(label.lower(), (qubit,)))
    return result


def expectation_pauli(amplitudes: np.ndarray, string: PauliString) -> float:
    """``<psi| P |psi>`` - always real for Hermitian ``P``."""
    transformed = apply_pauli(amplitudes, string)
    value = np.vdot(np.asarray(amplitudes, dtype=np.complex128), transformed)
    return float(value.real)


@dataclass(frozen=True)
class Observable:
    """A weighted sum of Pauli strings: ``sum_k coefficient_k * P_k``.

    Attributes:
        terms: ``(coefficient, string)`` pairs; an empty string means the
            identity (a constant energy shift).
    """

    terms: tuple[tuple[float, PauliString], ...]

    @classmethod
    def from_dict(cls, mapping: dict[str, float]) -> "Observable":
        """Build from ``{"Z0 Z1": -1.0, "X0": 0.5, "": 2.0}`` notation."""
        return cls(
            tuple((coeff, PauliString.parse(text)) for text, coeff in mapping.items())
        )

    def expectation(self, amplitudes: np.ndarray) -> float:
        """``sum_k c_k <psi| P_k |psi>``."""
        return sum(
            coeff * expectation_pauli(amplitudes, string)
            for coeff, string in self.terms
        )

    def min_width(self) -> int:
        return max((s.min_width() for _, s in self.terms), default=0)

