"""Tests for the chunk-granular detailed executor."""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import get_circuit
from repro.core.detailed import DetailedExecutor
from repro.core.executor import TimedExecutor
from repro.core.liveness import LiveTracker, live_schedule
from repro.core.reorder import reorder
from repro.core.versions import (
    BASELINE,
    NAIVE,
    OVERLAP,
    PRUNING,
    QGPU,
    QGPU_BASIS_TRACKING,
)
from repro.errors import SimulationError
from repro.hardware.machine import Machine
from repro.hardware.specs import PAPER_MACHINE

#: 4 MiB toy GPU buffer against 16 MiB (20-qubit) states: streaming active.
TOY_CAPACITY = 1 << 22
CHUNK_BITS = 14
NUM_QUBITS = 20


@pytest.fixture(scope="module")
def detailed() -> DetailedExecutor:
    return DetailedExecutor(
        Machine(PAPER_MACHINE), chunk_bits=CHUNK_BITS, capacity_bytes=TOY_CAPACITY
    )


@pytest.fixture(scope="module")
def closed_form() -> TimedExecutor:
    toy_gpu = replace(
        PAPER_MACHINE.gpus[0], memory_bytes=int(TOY_CAPACITY / 0.97) + 4096
    )
    toy = Machine(replace(PAPER_MACHINE, gpus=(toy_gpu,)))
    return TimedExecutor(toy, chunk_bits=CHUNK_BITS)


class TestCrossValidation:
    @pytest.mark.parametrize("family", ["gs", "qft", "iqp"])
    def test_naive_matches_closed_form_exactly(
        self, detailed, closed_form, family: str
    ) -> None:
        circuit = get_circuit(family, NUM_QUBITS)
        chunk_level = detailed.execute(circuit, NAIVE).makespan
        formula = closed_form.execute(circuit, NAIVE).total_seconds
        assert chunk_level == pytest.approx(formula, rel=1e-6)

    @pytest.mark.parametrize("family", ["gs", "qft", "iqp"])
    @pytest.mark.parametrize("version", [OVERLAP, PRUNING], ids=lambda v: v.name)
    def test_overlapped_within_drain_tolerance(
        self, detailed, closed_form, family: str, version
    ) -> None:
        # Continuous cross-gate streaming makes the detailed schedule at
        # most the closed form, and never more than ~25% below it.
        circuit = get_circuit(family, NUM_QUBITS)
        chunk_level = detailed.execute(circuit, version).makespan
        formula = closed_form.execute(circuit, version).total_seconds
        assert chunk_level <= formula * 1.0001
        assert chunk_level >= 0.75 * formula

    def test_pruned_chunk_accounting(self, detailed) -> None:
        circuit = get_circuit("iqp", NUM_QUBITS)
        unpruned = detailed.execute(circuit, OVERLAP)
        pruned = detailed.execute(circuit, PRUNING)
        assert unpruned.chunks_pruned == 0
        assert pruned.chunks_pruned > 0
        assert pruned.chunk_copies < unpruned.chunk_copies
        assert pruned.makespan < unpruned.makespan

    def test_compression_shrinks_makespan(self, detailed) -> None:
        circuit = get_circuit("qft", NUM_QUBITS)
        plain = detailed.execute(circuit, PRUNING).makespan
        compressed = detailed.execute(circuit, QGPU, compression_ratio=0.3).makespan
        assert compressed < plain

    def test_timeline_engines_are_pipelined(self, detailed) -> None:
        circuit = get_circuit("gs", NUM_QUBITS)
        run = detailed.execute(circuit, OVERLAP)
        # Both copy engines stay busy most of the makespan.
        assert run.timeline.utilization("h2d") > 0.5
        assert run.timeline.utilization("d2h") > 0.5


class TestPruningRules:
    """The DES walks the same live schedule as the engine, so every
    pruning rule prunes there too."""

    def test_basis_tracking_prunes_in_the_des(self) -> None:
        # Basis-state qubits 6-11 stay fixed under X and rz: basis tracking
        # keeps them pruned, Algorithm 1 involves them.
        circuit = QuantumCircuit(12, name="flips_12")
        for q in range(6, 12):
            circuit.x(q)
        circuit.h(0)
        for q in range(6, 12):
            circuit.rz(0.3, q)
        executor = DetailedExecutor(
            Machine(PAPER_MACHINE), chunk_bits=4, capacity_bytes=1 << 10
        )
        paper = executor.execute(circuit, QGPU)
        basis = executor.execute(circuit, QGPU_BASIS_TRACKING)
        assert basis.chunks_pruned > paper.chunks_pruned

        streamed = Counter()
        for name, record in basis.timeline.records.items():
            if name.endswith("/in"):
                streamed[int(name[1 : name.index("b")])] += record.task.meta["chunks"]
        ordered = reorder(circuit, QGPU_BASIS_TRACKING.reorder_strategy)
        tracker = LiveTracker(circuit.num_qubits, QGPU_BASIS_TRACKING.pruning)
        for _, index, _ in live_schedule(ordered, tracker):
            assert streamed[index] == tracker.subcube(4).live_chunks, index
        assert len(streamed) == len(ordered)


class TestValidation:
    def test_static_baseline_rejected(self, detailed) -> None:
        with pytest.raises(SimulationError, match="streaming versions"):
            detailed.execute(get_circuit("gs", NUM_QUBITS), BASELINE)

    def test_chunk_count_limit(self) -> None:
        executor = DetailedExecutor(
            Machine(PAPER_MACHINE), chunk_bits=4, capacity_bytes=1 << 12
        )
        with pytest.raises(SimulationError, match="impractical"):
            executor.execute(get_circuit("gs", 16), OVERLAP)

    def test_capacity_below_chunk_rejected(self) -> None:
        with pytest.raises(SimulationError, match="capacity"):
            DetailedExecutor(
                Machine(PAPER_MACHINE), chunk_bits=14, capacity_bytes=1 << 10
            )

    def test_narrow_circuit_rejected(self, detailed) -> None:
        with pytest.raises(SimulationError, match="narrower"):
            detailed.execute(get_circuit("gs", 8), OVERLAP)
