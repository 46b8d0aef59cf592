"""Tests for backend selection: plan() determinism, routing and rendering."""

from __future__ import annotations

import dataclasses

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import FAMILIES, get_circuit
from repro.errors import AnalysisError
from repro.planner import DEFAULT_CONFIG, plan

#: Families whose 28-qubit circuits no exact backend can vouch for: too
#: wide for the dense engine, not Clifford, and the sparse probe aborts.
UNPLANNABLE_AT_28 = ("rqc", "iqp", "hchain", "qaoa", "qf", "qft")


class TestRouting:
    @pytest.mark.parametrize("family", ["bv", "gs", "hlf"])
    def test_clifford_families_route_to_stabilizer(self, family: str) -> None:
        chosen = plan(get_circuit(family, 16), DEFAULT_CONFIG)
        assert chosen.backend == "stabilizer"
        assert chosen.precision == "double"

    @pytest.mark.parametrize("qubits", [14, 16])
    def test_support_sparse_routes_to_sparse(self, qubits: int) -> None:
        chosen = plan(get_circuit("w", qubits), DEFAULT_CONFIG)
        assert chosen.backend == "sparse"

    @pytest.mark.parametrize("family", ["qft", "rqc", "iqp"])
    def test_dense_families_route_to_statevector(self, family: str) -> None:
        chosen = plan(get_circuit(family, 11), DEFAULT_CONFIG)
        assert chosen.backend == "statevector"
        # precision="auto" takes the norm-guarded complex64 fast path.
        assert chosen.precision == "single"

    @pytest.mark.parametrize("family", UNPLANNABLE_AT_28)
    def test_beyond_dense_limit_rejects_with_every_reason(self, family: str) -> None:
        with pytest.raises(AnalysisError) as error:
            plan(get_circuit(family, 28), DEFAULT_CONFIG)
        message = str(error.value)
        assert f"no backend can execute {family}_28" in message
        assert "stabilizer: " in message and "outside the Clifford set" in message
        assert "sparse: support probe aborted" in message
        assert "statevector: functional dense engine is limited to 26" in message
        assert "mps" not in message

    def test_forced_mps_still_plans_beyond_the_dense_limit(self) -> None:
        # Forced sparse on rqc_28: test_sparse_rationale_agrees_with_the_probe.
        mps = plan(get_circuit("iqp", 31),
                   dataclasses.replace(DEFAULT_CONFIG, backend="mps"))
        assert mps.backend == "mps"
        assert mps.rationale == "backend mps forced by config"
        assert "approximate" not in mps.render()
        assert "truncat" not in mps.render()


class TestDeterminism:
    @pytest.mark.parametrize("family", ["bv", "w", "qft"])
    def test_same_circuit_same_plan(self, family: str) -> None:
        circuit = get_circuit(family, 12)
        first = plan(circuit, DEFAULT_CONFIG)
        second = plan(circuit, DEFAULT_CONFIG)
        assert first == second
        assert first.rationale == second.rationale
        assert first.render() == second.render()


class TestConfig:
    def test_forced_backend_respected(self) -> None:
        config = dataclasses.replace(DEFAULT_CONFIG, backend="sparse")
        chosen = plan(get_circuit("bv", 10), config)
        assert chosen.backend == "sparse"
        assert "forced" in chosen.rationale

    def test_forced_infeasible_backend_raises(self) -> None:
        config = dataclasses.replace(DEFAULT_CONFIG, backend="stabilizer")
        with pytest.raises(AnalysisError):
            plan(get_circuit("qft", 8), config)

    def test_unknown_backend_rejected(self) -> None:
        with pytest.raises(AnalysisError):
            plan(get_circuit("bv", 8),
                 dataclasses.replace(DEFAULT_CONFIG, backend="gpu"))

    def test_unknown_precision_rejected(self) -> None:
        with pytest.raises(AnalysisError):
            plan(get_circuit("bv", 8),
                 dataclasses.replace(DEFAULT_CONFIG, precision="half"))

    def test_double_precision_disables_fast_path(self) -> None:
        config = dataclasses.replace(DEFAULT_CONFIG, precision="double")
        chosen = plan(get_circuit("qft", 11), config)
        assert chosen.backend == "statevector"
        assert chosen.precision == "double"

    def test_single_precision_restricts_pool_to_statevector(self) -> None:
        config = dataclasses.replace(DEFAULT_CONFIG, precision="single")
        chosen = plan(get_circuit("bv", 12), config)
        assert chosen.backend == "statevector"
        assert chosen.precision == "single"


class TestRendering:
    def test_render_contains_cost_table_and_choice(self) -> None:
        chosen = plan(get_circuit("bv", 12), DEFAULT_CONFIG)
        text = chosen.render()
        assert text.startswith("plan for bv_12 on ")
        for backend in ("stabilizer", "sparse", "statevector"):
            assert backend in text
        assert "mps" not in text
        assert "-> chosen: stabilizer, precision double\n" in text
        assert "rationale:" in text

    def test_sparse_rationale_agrees_with_the_probe(self) -> None:
        # rqc_28's support probe aborts, so auto never picks sparse on it;
        # forcing sparse plans, and the rationale claims no probe result.
        forced = plan(get_circuit("rqc", 28),
                      dataclasses.replace(DEFAULT_CONFIG, backend="sparse"))
        assert not forced.features.probe_completed
        assert forced.rationale == "backend sparse forced by config"
        assert "support probe aborted" in forced.cost_for("sparse").reason
        completed = plan(get_circuit("w", 16), DEFAULT_CONFIG)
        assert completed.backend == "sparse"
        assert "support probe completed" in completed.rationale

    @pytest.mark.parametrize("qubits", [12, 28])
    @pytest.mark.parametrize("family", FAMILIES + ("w",))
    def test_probe_clause_matches_the_probe(self, family: str, qubits: int) -> None:
        circuit = get_circuit(family, qubits)
        if family in UNPLANNABLE_AT_28 and qubits == 28:
            # The rejection names the aborted probe instead.
            with pytest.raises(AnalysisError, match="support probe aborted"):
                plan(circuit, DEFAULT_CONFIG)
            return
        chosen = plan(circuit, DEFAULT_CONFIG)
        completed = chosen.features.probe_completed
        header = chosen.render().splitlines()[1]
        assert header.endswith(f"probe peak {chosen.features.probe_support_peak}"
                               f"{'' if completed else ' (aborted)'}  "
                               f"bond proxy {chosen.features.bond_estimate}")
        if chosen.backend == "sparse":
            # Auto picks sparse only on a completed probe.
            assert completed
            assert "support probe completed" in chosen.rationale
        else:
            # The probe clause only ever justifies a sparse choice.
            assert "support probe" not in chosen.rationale

    def test_cost_for_unknown_backend_raises(self) -> None:
        chosen = plan(get_circuit("bv", 8), DEFAULT_CONFIG)
        with pytest.raises(AnalysisError):
            chosen.cost_for("qpu")


class TestNothingFeasible:
    def test_error_lists_per_backend_reasons(self) -> None:
        # 40 qubits of H+T: too wide for dense, not Clifford, and a support
        # of 2^40 that no host holds; MPS would run it, but only by force.
        circuit = QuantumCircuit(40)
        for q in range(40):
            circuit.h(q).t(q)
        with pytest.raises(AnalysisError, match="no backend can execute") as error:
            plan(circuit, DEFAULT_CONFIG)
        message = str(error.value)
        for backend in ("stabilizer", "sparse", "statevector"):
            assert f"{backend}: " in message

    def test_single_precision_rejection_names_the_dense_only_rule(self) -> None:
        config = dataclasses.replace(DEFAULT_CONFIG, precision="single")
        with pytest.raises(AnalysisError) as error:
            plan(get_circuit("bv", 30), config)
        message = str(error.value)
        assert "stabilizer: single precision runs on the statevector engine only" in message
        assert "statevector: functional dense engine is limited to 26" in message
