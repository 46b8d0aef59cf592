"""Gate-fusion slabs: structure, numerics, and end-to-end agreement.

Four layers of contract:

* :func:`fuse_slabs` is a pure regrouping - concatenating the members of
  its output reproduces the input gate stream exactly, and every cap
  (dense width, diagonal width, outside-qubit bound) holds.
* It emits exactly the ops of the single-pass fuser it replaced (kept
  below as :func:`reference_fuse_slabs`), on random streams and on the
  nine families.
* A :class:`GateSlab`'s contracted matrix / combined diagonal is the
  mathematical product of its members, so applying the slab agrees with
  applying the gates one by one to 1e-12.
* The simulator, which always runs the fused stream, agrees with the
  reordered gates applied one by one across every paper version and both
  precisions, and checkpointing leaves the result byte-identical.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import Gate
from repro.circuits.library import FAMILIES, get_circuit
from repro.core.reorder import reorder
from repro.core.simulator import QGpuSimulator
from repro.core.versions import ALL_VERSIONS, QGPU
from repro.errors import SimulationError
from repro.planner import analyze_circuit
from repro.statevector.chunks import ChunkedStateVector
from repro.statevector.fusion import (
    MAX_DIAGONAL_OUTSIDE,
    MAX_DIAGONAL_WIDTH,
    MAX_FUSION_WIDTH,
    GateSlab,
    fuse_slabs,
    slab_members,
)
from repro.statevector.state import StateVector
from tests.strategies import circuits


def _flatten(ops) -> list[Gate]:
    return [gate for op in ops for gate in slab_members(op)]


def _mixed_circuit(num_qubits: int = 6) -> QuantumCircuit:
    """Dense chains, diagonal runs, and unfusible strays in one stream."""
    circuit = QuantumCircuit(num_qubits, name="mixed")
    for q in range(num_qubits):
        circuit.h(q)
    circuit.rz(0.3, 0)
    circuit.rz(0.7, 1)
    circuit.cz(0, 2)
    circuit.cx(0, 1)
    circuit.h(1)
    circuit.t(1)
    circuit.cx(2, 3)
    circuit.rz(1.1, 4)
    circuit.p(0.2, 5)
    circuit.cz(4, 5)
    circuit.h(5)
    return circuit


class TestFuseSlabsStructure:
    def test_members_reproduce_input_stream_exactly(self):
        gates = list(_mixed_circuit())
        ops = fuse_slabs(gates)
        assert _flatten(ops) == gates

    def test_consecutive_diagonals_form_one_diagonal_slab(self):
        circuit = QuantumCircuit(5)
        circuit.rz(0.1, 0)
        circuit.cz(1, 2)
        circuit.t(3)
        ops = fuse_slabs(list(circuit))
        assert len(ops) == 1
        (slab,) = ops
        assert isinstance(slab, GateSlab)
        assert slab.kind == "diagonal"
        assert slab.qubits == (0, 1, 2, 3)
        assert slab.name == "dslab[3]"

    def test_overlapping_dense_gates_fuse(self):
        circuit = QuantumCircuit(4)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.h(1)
        ops = fuse_slabs(list(circuit))
        assert len(ops) == 1
        (slab,) = ops
        assert slab.kind == "dense"
        assert slab.qubits == (0, 1)

    def test_disjoint_dense_gates_do_not_fuse(self):
        circuit = QuantumCircuit(4)
        circuit.h(0)
        circuit.h(2)
        ops = fuse_slabs(list(circuit))
        assert len(ops) == 2
        assert all(isinstance(op, Gate) for op in ops)

    def test_singletons_are_bare_gates(self):
        # Nothing fusible: the output is the input, same objects.
        circuit = QuantumCircuit(6)
        circuit.h(0)
        circuit.h(2)
        circuit.h(4)
        ops = fuse_slabs(list(circuit))
        assert ops == list(circuit)

    def test_dense_width_cap_holds(self):
        # A cx ladder unions one new qubit per gate; the slab must split
        # at MAX_FUSION_WIDTH.
        circuit = QuantumCircuit(10)
        for q in range(9):
            circuit.cx(q, q + 1)
        ops = fuse_slabs(list(circuit))
        for op in ops:
            if isinstance(op, GateSlab):
                assert op.width <= MAX_FUSION_WIDTH
        assert _flatten(ops) == list(circuit)

    def test_diagonal_width_cap_holds(self):
        circuit = QuantumCircuit(MAX_DIAGONAL_WIDTH + 4)
        for q in range(MAX_DIAGONAL_WIDTH + 4):
            circuit.rz(0.1 * (q + 1), q)
        ops = fuse_slabs(list(circuit))
        for op in ops:
            if isinstance(op, GateSlab):
                assert op.kind == "diagonal"
                assert op.width <= MAX_DIAGONAL_WIDTH
        assert _flatten(ops) == list(circuit)

    def test_diagonal_outside_cap_with_chunk_bits(self):
        # 8 diagonals all above chunk_bits: without the cap one slab,
        # with chunk_bits the outside union is bounded.
        circuit = QuantumCircuit(12)
        for q in range(4, 12):
            circuit.rz(0.2, q)
        ops = fuse_slabs(list(circuit), chunk_bits=4)
        for op in ops:
            if isinstance(op, GateSlab):
                outside = sum(1 for q in op.qubits if q >= 4)
                assert outside <= MAX_DIAGONAL_OUTSIDE
        assert _flatten(ops) == list(circuit)

    def test_lone_diagonal_between_dense_joins_dense_slab(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.rz(0.4, 0)
        circuit.h(0)
        ops = fuse_slabs(list(circuit))
        assert len(ops) == 1
        assert ops[0].kind == "dense"
        assert len(ops[0].gates) == 3

    def test_planner_prices_one_sweep_per_op(self):
        circuit = _mixed_circuit()
        features = analyze_circuit(circuit)
        assert features.fused_sweeps == len(fuse_slabs(list(circuit)))
        assert features.fused_sweeps < len(circuit)

    @pytest.mark.parametrize("kwargs", [{"max_width": 0},
                                        {"max_diagonal_width": 0}])
    def test_invalid_caps_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            fuse_slabs([Gate("h", (0,))], **kwargs)


class TestGateSlabValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError, match="kind"):
            GateSlab(gates=(Gate("h", (0,)),), qubits=(0,), kind="sparse")

    def test_empty_slab_rejected(self):
        with pytest.raises(SimulationError, match="at least one"):
            GateSlab(gates=(), qubits=(), kind="dense")

    def test_wrong_qubit_union_rejected(self):
        with pytest.raises(SimulationError, match="union"):
            GateSlab(gates=(Gate("h", (0,)),), qubits=(0, 1), kind="dense")

    def test_non_diagonal_member_in_diagonal_slab_rejected(self):
        with pytest.raises(SimulationError, match="non-diagonal"):
            GateSlab(
                gates=(Gate("rz", (0,), params=(0.1,)), Gate("h", (0,))),
                qubits=(0,),
                kind="diagonal",
            )

    def test_diagonal_of_dense_slab_rejected(self):
        slab = GateSlab(
            gates=(Gate("h", (0,)), Gate("h", (0,))), qubits=(0,), kind="dense"
        )
        with pytest.raises(SimulationError, match="not diagonal"):
            slab.diagonal()

    def test_matrix_and_diagonal_are_memoized_read_only(self):
        slab = fuse_slabs([Gate("h", (0,)), Gate("cx", (0, 1))])[0]
        assert slab.matrix() is slab.matrix()
        with pytest.raises(ValueError):
            slab.matrix()[0, 0] = 9.0
        dslab = fuse_slabs(
            [Gate("rz", (0,), params=(0.1,)), Gate("cz", (0, 1))]
        )[0]
        assert dslab.diagonal() is dslab.diagonal()
        with pytest.raises(ValueError):
            dslab.diagonal()[0] = 9.0


class TestSlabNumerics:
    """Slab application == member-by-member application, to 1e-12."""

    def _reference(self, gates, num_qubits: int) -> np.ndarray:
        rng = np.random.default_rng(7)
        amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(
            size=1 << num_qubits
        )
        amps /= np.linalg.norm(amps)
        return amps.astype(np.complex128)

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_slab_matrix_equals_member_product(self, seed):
        rng = np.random.default_rng(seed)
        gates = [Gate("h", (0,)), Gate("cx", (0, 1)),
                 Gate("rz", (1,), params=(float(rng.uniform(0, 6)),)),
                 Gate("h", (1,))]
        ops = fuse_slabs(gates)
        assert len(ops) == 1 and ops[0].kind == "dense"
        state = StateVector(3)
        fused = self._reference(gates, 3)
        unfused = fused.copy()
        state.amplitudes[:] = fused
        state.apply(ops[0])
        fused = state.amplitudes.copy()
        state.amplitudes[:] = unfused
        for gate in gates:
            state.apply(gate)
        np.testing.assert_allclose(fused, state.amplitudes, atol=1e-12)

    def test_diagonal_slab_multiplier_equals_member_product(self):
        gates = [Gate("rz", (0,), params=(0.3,)), Gate("cz", (0, 2)),
                 Gate("t", (1,)), Gate("p", (2,), params=(1.2,))]
        ops = fuse_slabs(gates)
        assert len(ops) == 1 and ops[0].kind == "diagonal"
        state = StateVector(3)
        start = self._reference(gates, 3)
        state.amplitudes[:] = start
        state.apply(ops[0])
        fused = state.amplitudes.copy()
        state.amplitudes[:] = start
        for gate in gates:
            state.apply(gate)
        np.testing.assert_allclose(fused, state.amplitudes, atol=1e-12)

    def test_remapped_slab_matches_remapped_members(self):
        gates = [Gate("h", (0,)), Gate("cx", (0, 1))]
        slab = fuse_slabs(gates)[0]
        mapping = {0: 2, 1: 4}
        moved = slab.remapped(mapping)
        assert moved.qubits == (2, 4)
        state = StateVector(5)
        start = self._reference(gates, 5)
        state.amplitudes[:] = start
        state.apply(moved)
        fused = state.amplitudes.copy()
        state.amplitudes[:] = start
        for gate in gates:
            state.apply(gate.remapped(mapping))
        np.testing.assert_allclose(fused, state.amplitudes, atol=1e-12)


def reference_fuse_slabs(
    gates, *, max_width=MAX_FUSION_WIDTH, max_diagonal_width=MAX_DIAGONAL_WIDTH,
    chunk_bits=None,
):
    """The single-pass fuser :func:`fuse_slabs` replaced, kept verbatim as
    the reference its two-step rebuild must reproduce op for op."""
    out = []
    dense = []
    dense_qubits = set()
    diag = []
    diag_qubits = set()

    def flush_dense():
        nonlocal dense, dense_qubits
        if len(dense) == 1:
            out.append(dense[0])
        elif dense:
            out.append(
                GateSlab(
                    gates=tuple(dense),
                    qubits=tuple(sorted(dense_qubits)),
                    kind="dense",
                )
            )
        dense = []
        dense_qubits = set()

    def push_dense(gate):
        nonlocal dense, dense_qubits
        union = dense_qubits | set(gate.qubits)
        touches = bool(dense_qubits & set(gate.qubits)) or not dense
        if touches and len(union) <= max_width:
            dense.append(gate)
            dense_qubits = union
        else:
            flush_dense()
            dense = [gate]
            dense_qubits = set(gate.qubits)

    def flush_diag():
        nonlocal diag, diag_qubits
        run, diag, diag_qubits = diag, [], set()
        if len(run) >= 2:
            flush_dense()
            out.append(
                GateSlab(
                    gates=tuple(run),
                    qubits=tuple(sorted({q for g in run for q in g.qubits})),
                    kind="diagonal",
                )
            )
        elif run:
            push_dense(run[0])

    def diag_accepts(gate):
        union = diag_qubits | set(gate.qubits)
        if len(union) > max_diagonal_width:
            return False
        if chunk_bits is not None:
            outside = sum(1 for q in union if q >= chunk_bits)
            if outside > MAX_DIAGONAL_OUTSIDE:
                return False
        return True

    for gate in gates:
        if gate.is_diagonal:
            if not diag_accepts(gate):
                flush_diag()
            diag.append(gate)
            diag_qubits |= set(gate.qubits)
        else:
            flush_diag()
            push_dense(gate)
    flush_diag()
    flush_dense()
    return out


def assert_same_ops(ops, expected) -> None:
    """Same op types, qubits, kinds and member *identity*, in order."""
    assert len(ops) == len(expected)
    for op, ref in zip(ops, expected):
        assert type(op) is type(ref)
        if isinstance(ref, GateSlab):
            assert (op.kind, op.qubits) == (ref.kind, ref.qubits)
            assert len(op.gates) == len(ref.gates)
            assert all(a is b for a, b in zip(op.gates, ref.gates))
        else:
            assert op is ref


class TestMatchesReferenceFuser:
    @settings(max_examples=150, deadline=None)
    @given(
        circuit=circuits(min_qubits=2, max_qubits=12, max_gates=60),
        chunk_bits=st.none() | st.integers(1, 12),
        max_width=st.integers(1, 5),
        max_diagonal_width=st.integers(1, 9),
    )
    def test_random_streams(self, circuit, chunk_bits, max_width, max_diagonal_width):
        gates = list(circuit)
        caps = {"max_width": max_width, "max_diagonal_width": max_diagonal_width}
        assert_same_ops(
            fuse_slabs(gates, chunk_bits=chunk_bits, **caps),
            reference_fuse_slabs(gates, chunk_bits=chunk_bits, **caps),
        )

    @pytest.mark.parametrize("chunk_bits", [None, 3, 6, 10])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_families(self, family, chunk_bits):
        for width in (8, 13, 21, 34):
            gates = list(reorder(get_circuit(family, width), QGPU.reorder_strategy))
            assert_same_ops(
                fuse_slabs(gates, chunk_bits=chunk_bits),
                reference_fuse_slabs(gates, chunk_bits=chunk_bits),
            )


def unfused(circuit, version, chunk_bits, dtype=np.complex128) -> np.ndarray:
    """The version's reordered gates applied one at a time: what fusion
    must agree with."""
    state = ChunkedStateVector(circuit.num_qubits, chunk_bits, dtype=dtype)
    for gate in reorder(circuit, version.reorder_strategy):
        state.apply(gate)
    return state.to_dense()


CIRCUITS = ("qft", "iqp", "qaoa", "bv")


class TestEndToEndAgreement:
    @pytest.mark.parametrize("version", ALL_VERSIONS, ids=lambda v: v.name)
    @pytest.mark.parametrize("name", CIRCUITS)
    def test_fused_matches_unfused_all_versions(self, version, name):
        circuit = get_circuit(name, 8)
        fused = QGpuSimulator(version=version, chunk_bits=4).run(circuit)
        np.testing.assert_allclose(
            fused.amplitudes, unfused(circuit, version, 4), atol=1e-12
        )

    @pytest.mark.parametrize("precision,atol", [("double", 1e-12),
                                                ("single", 2e-5)])
    def test_fused_matches_unfused_both_precisions(self, precision, atol):
        # complex64 carries ~7 significant digits, so the single-precision
        # tolerance is the precision's own, not fusion's.
        circuit = get_circuit("qft", 9)
        fused = QGpuSimulator(chunk_bits=5, precision=precision).run(circuit)
        assert fused.precision == precision
        np.testing.assert_allclose(
            fused.amplitudes, unfused(circuit, QGPU, 5), atol=atol
        )

    def test_fused_parallel_matches_unfused_serial(self):
        circuit = get_circuit("qaoa", 9)
        fused = QGpuSimulator(chunk_bits=5, workers=4).run(circuit)
        np.testing.assert_allclose(
            fused.amplitudes, unfused(circuit, QGPU, 5), atol=1e-12
        )

    def test_checkpointed_run_is_byte_identical_to_plain_run(self, tmp_path):
        # Checkpointing runs the same fused op stream as a plain run.
        circuit = get_circuit("qft", 7)
        plain = QGpuSimulator().run(circuit)
        checked = QGpuSimulator().run(
            circuit, checkpoint_every=5,
            checkpoint_path=tmp_path / "ck.npz",
        )
        assert checked.reliability.checkpoints_written > 0
        np.testing.assert_array_equal(
            plain.amplitudes.view(np.uint64),
            checked.amplitudes.view(np.uint64),
        )

    def test_fusion_has_no_switch(self):
        with pytest.raises(TypeError, match="fusion"):
            QGpuSimulator(fusion="off")
        with pytest.raises(TypeError, match="fusion"):
            QGpuSimulator().run(QuantumCircuit(6), fusion="off")

    def test_fusion_counters_and_stage_recorded(self):
        from repro.obs import LogicalClock, Tracer

        tracer = Tracer(clock=LogicalClock())
        QGpuSimulator(tracer=tracer).run(get_circuit("qft", 7))
        snapshot = tracer.counters.snapshot()
        assert snapshot.get("fusion.slabs", 0) > 0
        assert snapshot.get("fusion.gates_fused", 0) > snapshot["fusion.slabs"]
        assert any(span.stage == "fuse" for span in tracer.spans)
