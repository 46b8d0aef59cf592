"""Tests for the worker pool, the parallel sweep engine, and worker knobs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.core.simulator import QGpuSimulator
from repro.core.versions import ALL_VERSIONS, PRUNING
from repro.errors import SimulationError
from repro.statevector.chunks import ChunkedStateVector, chunk_pair_groups
from repro.statevector.fusion import fuse_slabs
from repro.statevector.kernels import chunk_diagonal_factor
from repro.statevector.parallel import (
    AUTO_PARALLEL_THRESHOLD,
    ChunkWorkerPool,
    ParallelChunkEngine,
    resolve_workers,
)
from repro.statevector.state import StateVector
from repro.statevector.subcube import LiveSubcube

SINGLE_GATES = ("h", "x", "y", "z", "s", "t")
PARAM_GATES = ("rx", "ry", "rz", "p")


def random_circuit(num_qubits: int, num_gates: int, seed: int) -> QuantumCircuit:
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, name=f"random_{seed}")
    for _ in range(num_gates):
        kind = rng.integers(0, 4)
        if kind == 0:
            name = str(rng.choice(SINGLE_GATES))
            getattr(circuit, name)(int(rng.integers(0, num_qubits)))
        elif kind == 1:
            name = str(rng.choice(PARAM_GATES))
            getattr(circuit, name)(float(rng.uniform(0, 2 * np.pi)),
                                   int(rng.integers(0, num_qubits)))
        elif kind == 2:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cx(int(a), int(b))
        else:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.cz(int(a), int(b))
    return circuit


def sweep_all(
    circuit: QuantumCircuit, chunk_bits: int, workers: int = 1
) -> ChunkedStateVector:
    """``circuit``'s fused ops swept over a fresh state, serially or on a
    pool of ``workers`` threads."""
    state = ChunkedStateVector(circuit.num_qubits, chunk_bits)
    engine = ParallelChunkEngine(workers) if workers > 1 else None
    try:
        for op in fuse_slabs(circuit, chunk_bits=chunk_bits):
            state.sweep(op, engine=engine)
    finally:
        if engine is not None:
            engine.close()
    return state


class TestChunkPairGroupsEdges:
    def test_gate_spanning_every_outside_qubit_forms_one_group(self):
        # 3 outside qubits -> every chunk is in the single co-residency group.
        groups = chunk_pair_groups(6, 3, (3, 4, 5))
        assert groups == [(0, 1, 2, 3, 4, 5, 6, 7)]

    def test_gate_spanning_every_outside_qubit_mixed_inside(self):
        # Inside qubits do not change the grouping; all outside bits pair.
        groups = chunk_pair_groups(5, 3, (0, 3, 4))
        assert groups == [(0, 1, 2, 3)]

    def test_single_chunk_when_chunk_bits_equals_num_qubits(self):
        assert chunk_pair_groups(4, 4, (0,)) == [(0,)]
        assert chunk_pair_groups(4, 4, (3,)) == [(0,)]

    def test_groups_partition_all_chunks(self):
        groups = chunk_pair_groups(7, 4, (5, 6))
        seen = sorted(index for members in groups for index in members)
        assert seen == list(range(8))
        assert all(len(members) == 4 for members in groups)


class TestResolveWorkers:
    def test_explicit_int_passes_through(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(7) == 7

    def test_auto_small_state_stays_serial(self):
        assert resolve_workers("auto", AUTO_PARALLEL_THRESHOLD - 1) == 1
        assert resolve_workers(None, 1 << 10) == 1

    def test_auto_large_state_uses_pool(self):
        resolved = resolve_workers("auto", AUTO_PARALLEL_THRESHOLD)
        assert 1 <= resolved <= 4

    @pytest.mark.parametrize("bad", [0, -2, 1.5, "three", True])
    def test_invalid_workers_rejected(self, bad):
        with pytest.raises(SimulationError, match="workers"):
            resolve_workers(bad)


class TestWorkerPool:
    def test_pool_requires_two_workers(self):
        with pytest.raises(SimulationError):
            ChunkWorkerPool(1)

    def test_run_tasks_executes_all_and_propagates_failure(self):
        pool = ChunkWorkerPool(3)
        hits: list[int] = []
        pool.run_tasks([lambda i=i: hits.append(i) for i in range(7)])
        assert sorted(hits) == list(range(7))

        def boom() -> None:
            raise ValueError("task failed")

        with pytest.raises(ValueError, match="task failed"):
            pool.run_tasks([lambda: None, boom])
        pool.close()
        with pytest.raises(SimulationError, match="closed"):
            pool.run_tasks([lambda: None])

    def test_engine_requires_two_workers_and_closes(self):
        with pytest.raises(SimulationError):
            ParallelChunkEngine(1)
        with ParallelChunkEngine(2) as engine:
            assert engine.workers == 2


class TestSerialParallelAgreement:
    @pytest.mark.parametrize("seed", range(4))
    def test_engine_matches_serial_and_dense(self, seed):
        num_qubits, chunk_bits = 8, 5
        circuit = random_circuit(num_qubits, 30, seed)
        dense = StateVector(num_qubits)
        dense.run(circuit)
        serial = sweep_all(circuit, chunk_bits)
        parallel = sweep_all(circuit, chunk_bits, workers=4)
        np.testing.assert_allclose(serial.to_dense(), dense.amplitudes, atol=1e-12)
        np.testing.assert_allclose(parallel.to_dense(), serial.to_dense(), atol=1e-12)

    @pytest.mark.parametrize("version", ALL_VERSIONS, ids=lambda v: v.name)
    def test_simulator_parallel_agrees_across_versions(self, version):
        circuit = random_circuit(7, 24, seed=11)
        serial = QGpuSimulator(version=version, chunk_bits=4, workers=1).run(circuit)
        parallel = QGpuSimulator(version=version, chunk_bits=4, workers=4).run(circuit)
        np.testing.assert_allclose(
            parallel.amplitudes, serial.amplitudes, atol=1e-12
        )
        assert parallel.chunk_updates_skipped == serial.chunk_updates_skipped

    def test_workers_one_is_bit_identical_to_serial(self):
        circuit = random_circuit(7, 24, seed=5)
        first = QGpuSimulator(chunk_bits=4, workers=1).run(circuit).amplitudes
        second = QGpuSimulator(chunk_bits=4, workers=1).run(circuit).amplitudes
        np.testing.assert_array_equal(
            first.view(np.uint64), second.view(np.uint64)
        )

    def test_pruning_aware_run_matches_unpruned(self):
        circuit = random_circuit(8, 20, seed=3)
        plain = sweep_all(circuit, 4)
        pruned = QGpuSimulator(version=PRUNING, chunk_bits=4, workers=2).run(circuit)
        assert pruned.chunk_updates_skipped > 0
        np.testing.assert_allclose(pruned.amplitudes, plain.to_dense(), atol=1e-12)

    def test_engine_handles_multi_qubit_cross_chunk_gate(self):
        # Both cx qubits above chunk_bits: the gathered fallback path.
        circuit = QuantumCircuit(6)
        for q in range(6):
            circuit.h(q)
        circuit.cx(4, 5)
        circuit.cz(3, 5)
        serial = sweep_all(circuit, 3)
        parallel = sweep_all(circuit, 3, workers=3)
        np.testing.assert_allclose(parallel.to_dense(), serial.to_dense(), atol=1e-12)

    def test_engine_sweeps_only_the_live_groups(self, monkeypatch):
        # A pruned subcube must only touch the chunks of its live groups.
        from repro.statevector import parallel

        monkeypatch.setattr(parallel, "AUTO_PARALLEL_THRESHOLD", 1)
        gate = Gate("h", (5,))
        groups = chunk_pair_groups(6, 4, gate.qubits)
        reference = ChunkedStateVector(6, 4)
        reference.apply_groups(gate, groups[:1])
        state = ChunkedStateVector(6, 4)
        live = LiveSubcube(2, fixed_mask=0b11, fixed_value=0b00)  # chunk 0 only
        with ParallelChunkEngine(2) as engine:
            assert state.sweep(gate, live, engine) == (2, 1)
        np.testing.assert_array_equal(state.to_dense(), reference.to_dense())


class TestKernels:
    def test_chunk_diagonal_factor_scalar_and_vector(self):
        gate = Gate("cz", (4, 5))
        # Both qubits outside chunk_bits=3: factor is a scalar phase.
        factor = chunk_diagonal_factor(gate, 3, 0b110000 >> 3)
        assert factor == pytest.approx(-1.0)
        assert chunk_diagonal_factor(gate, 3, 0) == pytest.approx(1.0)
        # One qubit inside: factor is a per-offset vector.
        mixed = Gate("cz", (1, 4))
        vector = chunk_diagonal_factor(mixed, 3, 0b10)
        assert isinstance(vector, np.ndarray)
        assert vector.shape == (8,)
        np.testing.assert_allclose(vector, [1, 1, -1, -1, 1, 1, -1, -1])

    def test_chunk_diagonal_factor_cache_shared_by_pattern(self):
        gate = Gate("rz", (5,), (0.7,))
        cache: dict[int, np.ndarray | complex] = {}
        first = chunk_diagonal_factor(gate, 3, 0, cache)
        again = chunk_diagonal_factor(gate, 3, 1, cache)  # same outside bits
        assert first is again
        other = chunk_diagonal_factor(gate, 3, 0b100, cache)
        assert other is not first
        assert len(cache) == 2


class TestBackingStorage:
    def test_chunks_are_views_into_backing(self):
        state = ChunkedStateVector(5, 3)
        state.chunks[1][0] = 0.5
        assert state.backing[1 << 3] == 0.5


class TestSimulatorWorkersKnob:
    def test_invalid_workers_rejected_at_construction(self):
        with pytest.raises(SimulationError, match="workers"):
            QGpuSimulator(workers=0)

    def test_run_override_beats_constructor(self):
        circuit = random_circuit(6, 12, seed=2)
        base = QGpuSimulator(chunk_bits=3, workers=1).run(circuit)
        overridden = QGpuSimulator(chunk_bits=3, workers=1).run(circuit, workers=3)
        np.testing.assert_allclose(
            overridden.amplitudes, base.amplitudes, atol=1e-12
        )

    def test_guarded_run_stays_serial_and_recovers(self):
        from repro.reliability.faults import FaultPlan

        circuit = random_circuit(6, 12, seed=9)
        plan = FaultPlan.from_spec("seed=3,transfer=0.05")
        clean = QGpuSimulator(chunk_bits=3, workers=4).run(circuit)
        faulty = QGpuSimulator(
            chunk_bits=3, workers=4, fault_plan=plan
        ).run(circuit)
        assert faulty.reliability is not None
        np.testing.assert_allclose(
            faulty.amplitudes, clean.amplitudes, atol=1e-12
        )
