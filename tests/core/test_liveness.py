"""Tests for the liveness tracker (the three pruning rules) and the schedule
every executor walks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate, qubit_mask
from repro.circuits.library import FAMILIES, get_circuit
from repro.core.executor import TimedExecutor
from repro.core.liveness import (
    RULES,
    LiveTracker,
    involvement_trace,
    live_fraction_trace,
    live_schedule,
)
from repro.core.pruning import iter_live_chunks
from repro.core.versions import PRUNING, VersionConfig
from repro.errors import SimulationError
from repro.hardware.machine import Machine
from repro.hardware.specs import PAPER_MACHINE
from repro.statevector.chunks import ChunkedStateVector
from repro.statevector.fusion import fuse_slabs, slab_members
from repro.statevector.state import simulate

from tests.strategies import circuits

BASIS_PRUNING = VersionConfig(
    "Pruning+basis", dynamic_allocation=True, overlap=True, pruning="basis"
)


def _fixed(tracker: LiveTracker) -> tuple[int, int]:
    """``(fixed mask, fixed value)`` over the whole register."""
    return ~tracker.free & ((1 << tracker.num_qubits) - 1), tracker.value


class TestQubitMask:
    def test_values(self) -> None:
        assert qubit_mask(()) == 0
        assert qubit_mask((0,)) == 1
        assert qubit_mask((1, 3)) == 0b1010
        assert qubit_mask((2, 2)) == 0b100


class TestTracker:
    def test_initially_uninvolved(self) -> None:
        tracker = LiveTracker(4)
        assert tracker.rule == "involvement"
        assert tracker.free == tracker.involvement == 0
        assert tracker.live_amplitudes == 1

    def test_involve_accumulates(self) -> None:
        tracker = LiveTracker(4)
        tracker.observe(Gate("h", (1,)))
        tracker.observe(Gate("cx", (1, 3)))
        assert tracker.involvement == tracker.free == 0b1010
        assert tracker.live_amplitudes == 4

    def test_observe_returns_the_union_of_live_sets(self) -> None:
        tracker = LiveTracker(4)
        tracker.observe(Gate("h", (0,)))
        assert tracker.observe(Gate("cx", (0, 2))) == 4
        assert tracker.involvement == 0b0101

    def test_gate_beyond_register_rejected(self) -> None:
        for rule in RULES:
            with pytest.raises(SimulationError):
                LiveTracker(2, rule).observe(Gate("h", (2,)))

    def test_validation(self) -> None:
        with pytest.raises(SimulationError):
            LiveTracker(0)
        with pytest.raises(SimulationError, match="pruning rule"):
            LiveTracker(2, "bogus")

    def test_no_pruning_keeps_everything_live(self) -> None:
        tracker = LiveTracker(5, None)
        assert tracker.live_amplitudes == 32
        assert tracker.observe(Gate("rz", (1,), (0.2,))) == 32
        assert tracker.subcube(2).live_chunks == 8
        # The checkpointed involvement mask is still Algorithm 1's.
        assert tracker.involvement == 0b10


class TestDiagonalRule:
    def test_diagonal_gate_does_not_involve(self) -> None:
        tracker = LiveTracker(4, "diagonal")
        tracker.observe(Gate("cp", (0, 2), (0.5,)))
        assert tracker.involvement == tracker.free == 0

    def test_non_diagonal_gate_still_involves(self) -> None:
        tracker = LiveTracker(4, "diagonal")
        tracker.observe(Gate("h", (1,)))
        assert tracker.involvement == 0b0010

    def test_paper_semantics_by_default(self) -> None:
        tracker = LiveTracker(4)
        tracker.observe(Gate("cp", (0, 2), (0.5,)))
        assert tracker.involvement == 0b0101

    def test_diagonal_gate_touches_only_the_live_set(self) -> None:
        diagonal = Gate("cp", (0, 3), (0.3,))
        aware = LiveTracker(4, "diagonal")
        paper = LiveTracker(4)
        aware.observe(Gate("h", (0,)))
        paper.observe(Gate("h", (0,)))
        assert aware.observe(diagonal) == 2
        assert paper.observe(diagonal) == 4

    def test_diagonal_aware_mask_is_subset(self) -> None:
        circuit = get_circuit("qft", 10)
        paper = LiveTracker(10)
        aware = LiveTracker(10, "diagonal")
        for gate in circuit:
            paper.observe(gate)
            aware.observe(gate)
            assert aware.involvement & paper.involvement == aware.involvement

    def test_out_of_range_checked_even_for_diagonal(self) -> None:
        with pytest.raises(SimulationError):
            LiveTracker(2, "diagonal").observe(Gate("rz", (5,), (0.1,)))


class TestBasisRule:
    def test_initially_all_fixed_zero(self) -> None:
        tracker = LiveTracker(3, "basis")
        assert tracker.live_amplitudes == 1
        assert _fixed(tracker) == (0b111, 0b000)

    def test_x_flips_without_freeing(self) -> None:
        tracker = LiveTracker(2, "basis")
        tracker.observe(Gate("x", (1,)))
        assert tracker.live_amplitudes == 1
        assert _fixed(tracker) == (0b11, 0b10)
        tracker.observe(Gate("x", (1,)))
        assert _fixed(tracker) == (0b11, 0b00)

    def test_h_frees(self) -> None:
        tracker = LiveTracker(2, "basis")
        tracker.observe(Gate("h", (0,)))
        assert tracker.free == 0b01
        assert tracker.live_amplitudes == 2

    def test_diagonal_gates_change_nothing(self) -> None:
        tracker = LiveTracker(3, "basis")
        tracker.observe(Gate("cp", (0, 2), (0.4,)))
        tracker.observe(Gate("rz", (1,), (0.2,)))
        assert tracker.live_amplitudes == 1

    def test_cx_with_fixed_zero_control_is_identity(self) -> None:
        tracker = LiveTracker(2, "basis")
        tracker.observe(Gate("cx", (0, 1)))
        assert tracker.live_amplitudes == 1

    def test_cx_with_fixed_one_control_flips_target(self) -> None:
        tracker = LiveTracker(2, "basis")
        tracker.observe(Gate("x", (0,)))
        tracker.observe(Gate("cx", (0, 1)))
        assert _fixed(tracker) == (0b11, 0b11)

    def test_cx_with_free_control_frees_target(self) -> None:
        tracker = LiveTracker(2, "basis")
        tracker.observe(Gate("h", (0,)))
        tracker.observe(Gate("cx", (0, 1)))
        assert tracker.live_amplitudes == 4

    def test_ccx_rules(self) -> None:
        tracker = LiveTracker(3, "basis")
        tracker.observe(Gate("ccx", (0, 1, 2)))  # both controls fixed-0
        assert tracker.live_amplitudes == 1
        tracker.observe(Gate("x", (0,)))
        tracker.observe(Gate("x", (1,)))
        tracker.observe(Gate("ccx", (0, 1, 2)))  # both controls fixed-1
        assert _fixed(tracker)[1] == 0b111

    def test_swap_exchanges_knowledge(self) -> None:
        tracker = LiveTracker(2, "basis")
        tracker.observe(Gate("x", (0,)))
        tracker.observe(Gate("swap", (0, 1)))
        assert _fixed(tracker) == (0b11, 0b10)

    def test_flip_touches_both_cosets(self) -> None:
        tracker = LiveTracker(3, "basis")
        assert tracker.observe(Gate("x", (1,))) == 2

    def test_records_algorithm1_involvement(self) -> None:
        tracker = LiveTracker(3, "basis")
        tracker.observe(Gate("x", (2,)))
        tracker.observe(Gate("cz", (0, 1)))
        assert tracker.free == 0
        assert tracker.involvement == 0b111


class TestBasisSoundness:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_pruned_chunks_are_zero_throughout(self, family: str) -> None:
        n, chunk_bits = 9, 3
        circuit = get_circuit(family, n)
        state = ChunkedStateVector(n, chunk_bits)
        tracker = LiveTracker(n, "basis")
        for gate in circuit:
            state.apply(gate)
            tracker.observe(gate)
            live = tracker.subcube(chunk_bits)
            for chunk in range(state.num_chunks):
                if chunk not in live:
                    assert state.chunk_is_zero(chunk), (family, gate)

    @given(seed=st.integers(0, 60))
    def test_random_circuits_sound(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        n, chunk_bits = 6, 2
        circuit = QuantumCircuit(n)
        for _ in range(30):
            kind = rng.integers(0, 6)
            if kind == 0:
                circuit.h(int(rng.integers(n)))
            elif kind == 1:
                circuit.x(int(rng.integers(n)))
            elif kind == 2:
                circuit.rz(0.3, int(rng.integers(n)))
            elif kind == 3:
                a, b = rng.choice(n, size=2, replace=False)
                circuit.cx(int(a), int(b))
            elif kind == 4:
                a, b = rng.choice(n, size=2, replace=False)
                circuit.swap(int(a), int(b))
            else:
                a, b, c = rng.choice(n, size=3, replace=False)
                circuit.ccx(int(a), int(b), int(c))
        state = ChunkedStateVector(n, chunk_bits)
        tracker = LiveTracker(n, "basis")
        for gate in circuit:
            state.apply(gate)
            tracker.observe(gate)
            live = tracker.subcube(chunk_bits)
            for chunk in range(state.num_chunks):
                if chunk not in live:
                    assert state.chunk_is_zero(chunk)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_never_looser_than_algorithm1(self, family: str) -> None:
        circuit = get_circuit(family, 12)
        basis = LiveTracker(12, "basis")
        algorithm1 = LiveTracker(12)
        for gate in circuit:
            basis.observe(gate)
            algorithm1.observe(gate)
            assert basis.live_amplitudes <= algorithm1.live_amplitudes


#: The gates the basis rule has exact cases for, plus one that frees and
#: one diagonal: circuits of these keep qubits fixed long enough to reach
#: the flip, control and swap cases.
BASIS_GATES = ("x", "y", "cx", "cy", "ccx", "swap", "h", "cz")


class TestScheduleSoundness:
    """On generated circuits, for every rule: after every op, every chunk
    outside the schedule's subcube is exactly zero in the engine's state."""

    @pytest.mark.parametrize("rule", ["involvement", "diagonal", "basis"])
    @settings(max_examples=80, deadline=None)
    @given(
        circuit=st.one_of(
            circuits(min_qubits=3, max_qubits=8, max_gates=30),
            circuits(min_qubits=3, max_qubits=6, max_gates=20, names=BASIS_GATES),
        ),
        data=st.data(),
    )
    def test_chunks_outside_the_subcube_are_zero(self, rule, circuit, data) -> None:
        n = circuit.num_qubits
        chunk_bits = data.draw(st.integers(1, n - 1), label="chunk_bits")
        state = ChunkedStateVector(n, chunk_bits)
        tracker = LiveTracker(n, rule)
        ops = fuse_slabs(list(circuit), chunk_bits=chunk_bits)
        for op, first, _ in live_schedule(ops, tracker):
            live = tracker.subcube(chunk_bits)
            state.sweep(op, live)
            for chunk in range(state.num_chunks):
                if chunk not in live:
                    assert not state.chunks[chunk].any(), (rule, first, op.name, chunk)
            if rule == "involvement":
                assert list(live) == list(
                    iter_live_chunks(n, chunk_bits, tracker.involvement)
                )
        np.testing.assert_allclose(
            state.to_dense(), simulate(circuit).amplitudes, atol=1e-9
        )


class TestSchedule:
    def test_steps_carry_first_source_index_and_touched(self) -> None:
        gates = [Gate("h", (0,)), Gate("cx", (0, 1)), Gate("h", (3,)), Gate("x", (2,))]
        ops = fuse_slabs(gates, chunk_bits=2)
        assert any(len(slab_members(op)) > 1 for op in ops)
        tracker = LiveTracker(4)
        reference = LiveTracker(4)
        first_expected = 0
        for op, first, touched in live_schedule(ops, tracker):
            members = slab_members(op)
            assert first == first_expected
            # A slab is charged the sum of its members' touches, and the
            # tracker has observed every member when the step is yielded.
            assert touched == sum(reference.observe(member) for member in members)
            assert tracker.involvement == reference.involvement
            first_expected += len(members)
        assert tracker.involvement == 0b1111

    def test_unfused_gates_touch_what_observe_returns(self) -> None:
        circuit = get_circuit("hchain", 8)
        paper = LiveTracker(8, "basis")
        expected = [paper.observe(gate) for gate in circuit]
        touched = [t for _, _, t in live_schedule(circuit, LiveTracker(8, "basis"))]
        assert touched == expected


class TestFunctionalIntegration:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_functional_run_bit_identical(self, family: str) -> None:
        from repro.core.simulator import QGpuSimulator

        circuit = get_circuit(family, 9)
        result = QGpuSimulator(version=BASIS_PRUNING, chunk_bits=4).run(circuit)
        np.testing.assert_allclose(
            result.amplitudes, simulate(circuit).amplitudes, atol=1e-10
        )

    def test_functional_prunes_at_least_as_much(self) -> None:
        from repro.core.simulator import QGpuSimulator

        circuit = get_circuit("hchain", 10)
        paper = QGpuSimulator(version=PRUNING, chunk_bits=4).run(circuit)
        basis = QGpuSimulator(version=BASIS_PRUNING, chunk_bits=4).run(circuit)
        assert basis.chunk_updates_skipped >= paper.chunk_updates_skipped


class TestExecutorIntegration:
    def test_basis_tracking_never_slower(self) -> None:
        executor = TimedExecutor(Machine(PAPER_MACHINE))
        for family in ("hchain", "qft", "bv", "qaoa"):
            circuit = get_circuit(family, 31)
            paper = executor.execute(circuit, PRUNING).total_seconds
            basis = executor.execute(circuit, BASIS_PRUNING).total_seconds
            assert basis <= paper * 1.001, family

    def test_hchain_gains_from_fixed_bit_tracking(self) -> None:
        executor = TimedExecutor(Machine(PAPER_MACHINE))
        circuit = get_circuit("hchain", 31)
        paper = executor.execute(circuit, PRUNING).total_seconds
        basis = executor.execute(circuit, BASIS_PRUNING).total_seconds
        assert basis < 0.95 * paper


class TestTraces:
    def test_involvement_trace_monotone_in_popcount(self) -> None:
        circuit = QuantumCircuit(4).h(2).cx(2, 0).h(3).h(1)
        trace = involvement_trace(circuit)
        assert trace == [0b0100, 0b0101, 0b1101, 0b1111]
        counts = [m.bit_count() for m in trace]
        assert counts == sorted(counts)

    def test_live_fraction_trace(self) -> None:
        circuit = QuantumCircuit(2).h(0).h(1)
        assert live_fraction_trace(circuit) == [0.5, 1.0]

    @given(seed=st.integers(0, 100))
    def test_trace_superset_property(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        circuit = QuantumCircuit(5)
        for _ in range(20):
            circuit.h(int(rng.integers(5)))
        trace = involvement_trace(circuit)
        for earlier, later in zip(trace, trace[1:]):
            assert earlier & later == earlier  # masks only grow
