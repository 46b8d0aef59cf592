"""Tests for Algorithms 2 and 3 (gate reordering)."""

from __future__ import annotations

import importlib
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.dag import GateDag
from repro.circuits.gates import qubit_mask
from repro.circuits.library import FAMILIES, get_circuit, graph_state
from repro.core.reorder import reorder, reorder_forward_looking, reorder_greedy
from repro.errors import CircuitError
from repro.statevector.state import simulate
from tests.strategies import circuits

# ``repro.core`` re-exports the ``reorder`` function under the module's name.
reorder_module = importlib.import_module("repro.core.reorder")


def reference_forward_looking(
    circuit: QuantumCircuit, commute_diagonals: bool = False
) -> list[int]:
    """Algorithm 3 as first written: every candidate rebuilds the gates
    ready after it and scans them all (quadratic in the ready set per step).
    Returns the schedule as source gate indices."""
    dag = GateDag(circuit, commute_diagonals=commute_diagonals)
    pending = {node.index: len(node.predecessors) for node in dag}
    ready = dag.roots()
    masks = [qubit_mask(node.gate.qubits) for node in dag.nodes]
    involved = 0
    order: list[int] = []

    def look_ahead_cost(candidate: int) -> tuple[int, int]:
        cost_current = (masks[candidate] & ~involved).bit_count()
        uninvolved_after = ~(involved | masks[candidate])
        next_ready = [index for index in ready if index != candidate]
        for successor in dag.nodes[candidate].successors:
            if pending[successor] == 1:
                next_ready.append(successor)
        cost_look_ahead = 0
        if next_ready:
            cost_look_ahead = min(
                (masks[index] & uninvolved_after).bit_count()
                for index in next_ready
            )
        return cost_current + cost_look_ahead, cost_current

    while ready:
        best_index = None
        best_cost = None
        for index in ready:
            cost = look_ahead_cost(index)
            if best_cost is None or cost < best_cost or (
                cost == best_cost and index < best_index
            ):
                best_cost = cost
                best_index = index
        ready.remove(best_index)
        order.append(best_index)
        involved |= masks[best_index]
        for successor in sorted(dag.nodes[best_index].successors):
            pending[successor] -= 1
            if pending[successor] == 0:
                ready.append(successor)
    return order


def schedule(circuit: QuantumCircuit, commute_diagonals: bool) -> list[int]:
    return reorder_module._forward_looking_order(
        GateDag(circuit, commute_diagonals=commute_diagonals)
    )


def mean_live_fraction(circuit: QuantumCircuit) -> float:
    from repro.core.liveness import live_fraction_trace

    trace = live_fraction_trace(circuit)
    return sum(trace) / len(trace)


class TestValidity:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("strategy", ["greedy", "forward_looking"])
    def test_reordered_respects_dependencies(self, family: str, strategy: str) -> None:
        circuit = get_circuit(family, 10)
        ordered = reorder(circuit, strategy)
        assert sorted(map(str, ordered.gates)) == sorted(map(str, circuit.gates))
        # Reconstruct the permutation and check it against the DAG.
        dag = GateDag(circuit)
        remaining: dict[str, list[int]] = {}
        for node in dag.nodes:
            remaining.setdefault(str(node.gate), []).append(node.index)
        order = []
        for gate in ordered:
            order.append(remaining[str(gate)].pop(0))
        # Identical gates are interchangeable; a stable greedy match can
        # produce a sibling permutation, so verify semantics instead when
        # the strict check fails.
        if not dag.is_valid_order(order):
            np.testing.assert_allclose(
                simulate(ordered).amplitudes,
                simulate(circuit).amplitudes,
                atol=1e-10,
            )

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("strategy", ["original", "greedy", "forward_looking"])
    def test_final_state_bit_identical(self, family: str, strategy: str) -> None:
        circuit = get_circuit(family, 9)
        ordered = reorder(circuit, strategy)
        np.testing.assert_allclose(
            simulate(ordered).amplitudes, simulate(circuit).amplitudes, atol=1e-10
        )

    def test_original_strategy_is_identity(self) -> None:
        circuit = get_circuit("qft", 8)
        assert reorder(circuit, "original") is circuit

    def test_unknown_strategy_rejected(self) -> None:
        with pytest.raises(CircuitError, match="unknown reorder strategy"):
            reorder(QuantumCircuit(2).h(0), "best_effort")


class TestFig8WalkThrough:
    """The paper's gs_5 example (Fig. 8)."""

    def test_greedy_delays_involvement(self) -> None:
        circuit = graph_state(5)
        original_profile = circuit.involvement_profile()
        greedy_profile = reorder_greedy(circuit).involvement_profile()
        assert original_profile == [1, 2, 3, 4, 5, 5, 5, 5, 5]
        # Greedy must never involve more qubits than the original at any
        # step, and must delay full involvement.
        assert all(g <= o for g, o in zip(greedy_profile, original_profile))
        assert greedy_profile.index(5) > original_profile.index(5)

    def test_forward_looking_beats_greedy_on_gs5(self) -> None:
        circuit = graph_state(5)
        greedy = reorder_greedy(circuit).involvement_profile()
        forward = reorder_forward_looking(circuit).involvement_profile()
        # The path-graph analogue of Fig. 8c: H and CNOT interleave so each
        # step adds at most one qubit and CNOTs execute as soon as free.
        assert forward == [1, 2, 2, 3, 3, 4, 4, 5, 5]
        assert sum(forward) <= sum(greedy)

    def test_forward_looking_interleaves_h_and_cx(self) -> None:
        ordered = reorder_forward_looking(graph_state(5))
        names = [g.name for g in ordered]
        # Not all Hadamards first any more.
        assert names[:5] != ["h"] * 5


class TestEffectiveness:
    def test_forward_looking_delays_qft(self) -> None:
        circuit = get_circuit("qft", 14)
        assert mean_live_fraction(
            reorder_forward_looking(circuit)
        ) < 0.5 * mean_live_fraction(circuit)

    def test_qaoa_is_reorder_resistant(self) -> None:
        circuit = get_circuit("qaoa", 14)
        improvement = mean_live_fraction(circuit) - mean_live_fraction(
            reorder_forward_looking(circuit)
        )
        assert improvement < 0.35

    def test_hchain_is_reorder_resistant(self) -> None:
        circuit = get_circuit("hchain", 12)
        assert mean_live_fraction(reorder_forward_looking(circuit)) > 0.5

    @pytest.mark.parametrize("family", FAMILIES)
    def test_forward_looking_never_increases_mean_involvement_much(
        self, family: str
    ) -> None:
        circuit = get_circuit(family, 12)
        original = mean_live_fraction(circuit)
        forward = mean_live_fraction(reorder_forward_looking(circuit))
        assert forward <= original + 1e-9

    @given(seed=st.integers(0, 50))
    def test_random_circuits_preserve_semantics(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        circuit = QuantumCircuit(5)
        for _ in range(25):
            kind = rng.integers(0, 3)
            if kind == 0:
                circuit.h(int(rng.integers(5)))
            elif kind == 1:
                a, b = rng.choice(5, size=2, replace=False)
                circuit.cx(int(a), int(b))
            else:
                circuit.t(int(rng.integers(5)))
        for strategy in ("greedy", "forward_looking"):
            ordered = reorder(circuit, strategy)
            np.testing.assert_allclose(
                simulate(ordered).amplitudes,
                simulate(circuit).amplitudes,
                atol=1e-10,
            )


class TestForwardLookingTranscription:
    """The per-step mask count picks exactly the gates the quadratic
    transcription of Algorithm 3 picks."""

    @given(circuit=circuits(min_qubits=2, max_qubits=10, max_gates=60))
    @pytest.mark.parametrize("commute_diagonals", [False, True])
    def test_random_circuits(
        self, circuit: QuantumCircuit, commute_diagonals: bool
    ) -> None:
        assert schedule(circuit, commute_diagonals) == reference_forward_looking(
            circuit, commute_diagonals
        )

    @given(circuit=circuits(min_qubits=2, max_qubits=4, max_gates=30))
    def test_narrow_circuits_with_repeated_masks(self, circuit: QuantumCircuit) -> None:
        # Few qubits make many ready gates share an uninvolved mask.
        assert schedule(circuit, False) == reference_forward_looking(circuit)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize(
        "num_qubits,seed", [(12, 0), (12, 1), (20, 0), (20, 1), (30, 0), (34, 0)]
    )
    @pytest.mark.parametrize("commute_diagonals", [False, True])
    def test_paper_families(
        self, family: str, num_qubits: int, seed: int, commute_diagonals: bool
    ) -> None:
        circuit = get_circuit(family, num_qubits, seed=seed)
        assert schedule(circuit, commute_diagonals) == reference_forward_looking(
            circuit, commute_diagonals
        )


class TestMemo:
    """``reorder`` remembers permutations, never circuits."""

    def test_hits_return_fresh_equal_circuits(self) -> None:
        circuit = get_circuit("qft", 10)
        first = reorder(circuit)
        second = reorder(circuit)
        assert first == second
        assert first is not second
        assert second.name == circuit.name

    def test_mutating_a_result_leaves_the_next_call_alone(self) -> None:
        circuit = get_circuit("gs", 10)
        first = reorder(circuit)
        expected = list(first.gates)
        first.h(0)
        assert list(reorder(circuit).gates) == expected

    def test_mutating_the_source_reorders_the_new_gates(self) -> None:
        circuit = get_circuit("gs", 10)
        before = reorder(circuit)
        circuit.h(3)
        after = reorder(circuit)
        assert len(after) == len(before) + 1
        assert after == reorder_forward_looking(circuit)

    def test_renamed_copies_share_the_schedule(self) -> None:
        circuit = get_circuit("qaoa", 10)
        renamed = circuit.with_gates(circuit.gates)
        renamed.name = "other"
        assert reorder(renamed) == reorder(circuit)
        assert reorder(renamed).name == "other"

    def test_commute_diagonals_gets_its_own_entry(self) -> None:
        circuit = get_circuit("qaoa", 10)
        reorder(circuit, commute_diagonals=False)
        reorder(circuit, commute_diagonals=True)
        fingerprint = circuit.fingerprint()
        memo = reorder_module._memo
        assert (fingerprint, "forward_looking", False) in memo
        assert (fingerprint, "forward_looking", True) in memo
        for flag in (False, True):
            assert reorder(circuit, commute_diagonals=flag) == (
                reorder_forward_looking(circuit, commute_diagonals=flag)
            )

    def test_strategies_get_their_own_entries(self) -> None:
        circuit = get_circuit("qft", 9)
        assert reorder(circuit, "greedy") == reorder_greedy(circuit)
        assert reorder(circuit, "forward_looking") == reorder_forward_looking(circuit)

    def test_memo_stays_within_its_bound(self) -> None:
        bound = reorder_module.MEMO_SIZE
        for width in range(bound + 20):
            circuit = QuantumCircuit(2).h(0)
            for _ in range(width):
                circuit.cx(0, 1)
            reorder(circuit, "greedy")
            assert len(reorder_module._memo) <= bound
        # The newest entry survives, the oldest of this run is gone.
        assert (circuit.fingerprint(), "greedy", False) in reorder_module._memo
        first = QuantumCircuit(2).h(0)
        assert (first.fingerprint(), "greedy", False) not in reorder_module._memo

    def test_memo_stores_permutations_only(self) -> None:
        reorder(get_circuit("bv", 8))
        for order in reorder_module._memo.values():
            assert isinstance(order, tuple)
            assert all(isinstance(index, int) for index in order)

    def test_threads_share_the_memo_safely(self, monkeypatch) -> None:
        # A bound below the working set makes calls evict entries that
        # other threads have just found.
        monkeypatch.setattr(reorder_module, "MEMO_SIZE", 2)
        circuits = [get_circuit(family, 5) for family in ("bv", "gs", "qft", "iqp")]
        expected = [reorder_forward_looking(circuit) for circuit in circuits]
        failures: list[BaseException | str] = []

        def worker(offset: int) -> None:
            try:
                for step in range(400):
                    k = (offset + step) % len(circuits)
                    if reorder(circuits[k]) != expected[k]:
                        failures.append(circuits[k].name)
            except Exception as error:  # surfaced by the assert below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert len(reorder_module._memo) <= 2
