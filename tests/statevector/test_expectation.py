"""Tests for Pauli-string observables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.errors import SimulationError
from repro.statevector.expectation import (
    Observable,
    PauliString,
    apply_pauli,
    expectation_pauli,
)
from repro.statevector.state import StateVector, simulate


class TestPauliString:
    def test_parse_and_str(self) -> None:
        string = PauliString.parse("Z0 X3 Y1")
        assert string.support == (0, 1, 3)
        assert str(string) == "Z0 Y1 X3"
        assert string.min_width() == 4

    def test_identity_string(self) -> None:
        assert str(PauliString(())) == "I"
        assert PauliString(()).min_width() == 0

    def test_validation(self) -> None:
        with pytest.raises(SimulationError):
            PauliString(((0, "Q"),))
        with pytest.raises(SimulationError):
            PauliString(((0, "Z"), (0, "X")))
        with pytest.raises(SimulationError):
            PauliString.parse("Zx")


class TestExpectations:
    def test_z_on_basis_states(self) -> None:
        zero = StateVector(2).amplitudes
        assert expectation_pauli(zero, PauliString.parse("Z0")) == pytest.approx(1.0)
        one = simulate(QuantumCircuit(2).x(1)).amplitudes
        assert expectation_pauli(one, PauliString.parse("Z1")) == pytest.approx(-1.0)
        assert expectation_pauli(one, PauliString.parse("Z0")) == pytest.approx(1.0)

    def test_x_on_plus_state(self) -> None:
        plus = simulate(QuantumCircuit(1).h(0)).amplitudes
        assert expectation_pauli(plus, PauliString.parse("X0")) == pytest.approx(1.0)
        assert expectation_pauli(plus, PauliString.parse("Z0")) == pytest.approx(0.0, abs=1e-12)

    def test_zz_correlations_of_bell_state(self) -> None:
        bell = simulate(QuantumCircuit(2).h(0).cx(0, 1)).amplitudes
        assert expectation_pauli(bell, PauliString.parse("Z0 Z1")) == pytest.approx(1.0)
        assert expectation_pauli(bell, PauliString.parse("X0 X1")) == pytest.approx(1.0)
        assert expectation_pauli(bell, PauliString.parse("Y0 Y1")) == pytest.approx(-1.0)
        assert expectation_pauli(bell, PauliString.parse("Z0")) == pytest.approx(0.0, abs=1e-12)

    def test_apply_pauli_does_not_mutate(self) -> None:
        state = simulate(QuantumCircuit(1).h(0)).amplitudes
        before = state.copy()
        apply_pauli(state, PauliString.parse("X0"))
        np.testing.assert_array_equal(state, before)

    def test_width_check(self) -> None:
        with pytest.raises(SimulationError):
            expectation_pauli(StateVector(2).amplitudes, PauliString.parse("Z5"))


class TestObservable:
    def test_weighted_sum(self) -> None:
        observable = Observable.from_dict({"Z0": 2.0, "Z1": -1.0, "": 0.5})
        state = simulate(QuantumCircuit(2).x(1)).amplitudes
        # <Z0>=1, <Z1>=-1, identity term contributes its coefficient.
        assert observable.expectation(state) == pytest.approx(2.0 + 1.0 + 0.5)

    def test_min_width(self) -> None:
        observable = Observable.from_dict({"Z0 Z7": 1.0})
        assert observable.min_width() == 8

