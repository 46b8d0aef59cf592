"""The live-subcube descriptor and the sweep kernel against the per-chunk
reference (``chunk_pair_groups`` + a per-chunk pruning test + ``apply_groups``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.gates import Gate
from repro.circuits.library import get_circuit
from repro.core.liveness import LiveTracker
from repro.core.pruning import chunk_is_pruned
from repro.core.reorder import reorder
from repro.core.simulator import QGpuSimulator
from repro.core.versions import (
    ALL_VERSIONS,
    QGPU,
    QGPU_BASIS_TRACKING,
    QGPU_DIAGONAL_AWARE,
)
from repro.errors import JobCancelled, SimulationError
from repro.obs import Tracer
from repro.reliability.cancellation import CancellationToken
from repro.statevector import kernels, parallel
from repro.statevector.apply import apply_gate
from repro.statevector.chunks import ChunkedStateVector, chunk_pair_groups
from repro.statevector.fusion import fuse_slabs, slab_members
from repro.statevector.kernels import subcube_view, sweep
from repro.statevector.parallel import ParallelChunkEngine
from repro.statevector.subcube import LiveSubcube, outside_mask

FAMILIES = ("bv", "gs", "hchain", "hlf", "iqp", "qaoa", "qf", "qft", "rqc")

#: The paper's six versions plus the two pruning extensions, so the
#: basis-tracking descriptor (non-zero fixed values) is swept too.
VERSIONS = ALL_VERSIONS + (QGPU_DIAGONAL_AWARE, QGPU_BASIS_TRACKING)

SENTINEL = 7.0 - 3.0j


def _random_state(rng, num_qubits, dtype=np.complex128) -> np.ndarray:
    size = 1 << num_qubits
    return (rng.normal(size=size) + 1j * rng.normal(size=size)).astype(dtype)


def _random_op(rng, num_qubits: int, chunk_bits: int, outside: int):
    """A diagonal, controlled, dense or fused op with ``outside`` qubits
    at or above ``chunk_bits``."""
    high = rng.permutation(np.arange(chunk_bits, num_qubits))[:outside]
    width = int(rng.integers(max(1, outside), 4))
    low = rng.permutation(chunk_bits)[: max(0, width - len(high))]
    qubits = [int(q) for q in rng.permutation(np.concatenate([high, low]))]
    if len(qubits) == 1:
        name = str(rng.choice(["h", "x", "rx", "rz", "t"]))
        params = (0.37,) if name in ("rx", "rz") else ()
        return Gate(name, tuple(qubits), params)
    if len(qubits) == 2:
        name = str(rng.choice(["cx", "cy", "cz", "cp", "swap", "slab"]))
        if name == "slab":
            a, b = qubits
            return fuse_slabs(
                [Gate("h", (a,)), Gate("cx", (a, b)), Gate("ry", (b,), (0.4,))]
            )[0]
        return Gate(name, tuple(qubits), (0.61,) if name == "cp" else ())
    if rng.random() < 0.5:
        return Gate("ccx", tuple(qubits))
    a, b, c = qubits
    return fuse_slabs(
        [Gate("rz", (a,), (0.2,)), Gate("cz", (a, b)), Gate("cp", (b, c), (0.9,))]
    )[0]


def _basis_pruned(chunk_bits: int, free: int, value: int):
    """Per-chunk test: some index bit disagrees with a fixed qubit."""
    def pruned(chunk: int) -> bool:
        index = chunk << chunk_bits
        fixed = ~free & ~((1 << chunk_bits) - 1)
        return index & fixed != value & fixed
    return pruned


def _random_descriptor(rng, num_qubits: int, chunk_bits: int):
    """``(LiveSubcube, per-chunk pruned predicate)`` from a random tracker."""
    if rng.random() < 0.5:
        tracker = LiveTracker(num_qubits)
        for q in range(num_qubits):
            if rng.random() < 0.5:
                tracker.observe(Gate("h", (q,)))
        mask = tracker.involvement
        return (
            tracker.subcube(chunk_bits),
            lambda chunk: chunk_is_pruned(chunk, chunk_bits, mask),
        )
    # Each qubit fixed at |0>, fixed at |1> or free, half of them free.
    tracker = LiveTracker(num_qubits, "basis")
    for q in range(num_qubits):
        state = int(rng.choice([0, 1, 2, 2]))
        if state:
            tracker.observe(Gate("x" if state == 1 else "h", (q,)))
    return tracker.subcube(chunk_bits), _basis_pruned(
        chunk_bits, tracker.free, tracker.value
    )


def _enumerated_live_groups(num_qubits, chunk_bits, qubits, pruned):
    groups = chunk_pair_groups(num_qubits, chunk_bits, qubits)
    return groups, [g for g in groups if not all(pruned(m) for m in g)]


class TestDescriptor:
    """(a) closed-form members and counts == the enumeration."""

    @pytest.mark.parametrize("seed", range(60))
    def test_members_and_counts_match_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        num_qubits = int(rng.integers(2, 13))
        chunk_bits = int(rng.integers(1, num_qubits + 1))
        outside = int(rng.integers(0, min(3, num_qubits - chunk_bits) + 1))
        op = _random_op(rng, num_qubits, chunk_bits, outside)
        live, pruned = _random_descriptor(rng, num_qubits, chunk_bits)

        every_chunk = range(1 << (num_qubits - chunk_bits))
        members = [c for c in every_chunk if c in live]
        assert members == [c for c in every_chunk if not pruned(c)]
        assert len(members) == live.live_chunks

        groups, live_groups = _enumerated_live_groups(
            num_qubits, chunk_bits, op.qubits, pruned
        )
        mask = outside_mask(op.qubits, chunk_bits)
        assert live.group_counts(mask) == (len(groups), len(live_groups))
        relaxed = live.relaxed(mask)
        assert [c for c in every_chunk if c in relaxed] == sorted(
            member for group in live_groups for member in group
        )

    def test_descriptor_validates(self):
        with pytest.raises(SimulationError):
            LiveSubcube(2, fixed_mask=0b100)
        with pytest.raises(SimulationError):
            LiveSubcube(2, fixed_mask=0b01, fixed_value=0b10)


class TestSubcubeView:
    def test_view_is_exactly_the_matching_amplitudes(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            n = int(rng.integers(1, 11))
            qubits = tuple(int(q) for q in rng.permutation(n)[: rng.integers(0, 4)])
            fixed = int(rng.integers(0, 1 << n)) & ~1  # keep one bit live
            tiles = int(rng.integers(0, 1 << n)) & ~fixed
            for q in qubits:
                fixed &= ~(1 << q)
                tiles &= ~(1 << q)
            value = int(rng.integers(0, 1 << n)) & fixed
            buffer = np.arange(1 << n, dtype=np.complex128)
            view, axes, tile_axes = subcube_view(
                buffer, fixed, value, qubits, tiles, int(rng.integers(0, n + 1))
            )
            assert np.shares_memory(view, buffer)
            expected = [i for i in range(1 << n) if i & fixed == value]
            assert sorted(view.ravel().real.astype(int)) == expected
            for q, axis in zip(qubits, axes):
                assert view.shape[axis] == 2
                assert view.strides[axis] == 16 << q
            # Indexing the tile axes enumerates the values of the tile
            # bits in ascending order, each tile holding one value.
            tiled = np.moveaxis(view, tile_axes, range(len(tile_axes)))
            seen = []
            for index in np.ndindex(tiled.shape[: len(tile_axes)]):
                values = {int(a.real) & tiles for a in tiled[index].ravel()}
                assert len(values) == 1
                seen.append(values.pop())
            assert seen == sorted({i & tiles for i in range(1 << n)})


class TestSweepKernel:
    @pytest.mark.parametrize("dtype", [np.complex128, np.complex64])
    @pytest.mark.parametrize("seed", range(40))
    def test_sweep_matches_dense_on_live_and_spares_the_rest(self, seed, dtype):
        """(b) pruned memory is never written - and live memory is right."""
        rng = np.random.default_rng(1000 + seed)
        num_qubits = int(rng.integers(3, 12))
        chunk_bits = int(rng.integers(1, num_qubits))
        outside = int(rng.integers(0, min(3, num_qubits - chunk_bits) + 1))
        op = _random_op(rng, num_qubits, chunk_bits, outside)
        live, _ = _random_descriptor(rng, num_qubits, chunk_bits)
        relaxed = live.relaxed(outside_mask(op.qubits, chunk_bits))

        amplitudes = _random_state(rng, num_qubits, dtype)
        expected = amplitudes.copy()
        for member in slab_members(op):
            apply_gate(expected, member)
        state = ChunkedStateVector.from_dense(amplitudes, chunk_bits)
        for chunk in range(state.num_chunks):
            if chunk not in relaxed:
                state.chunks[chunk][...] = SENTINEL
                expected[chunk << chunk_bits : (chunk + 1) << chunk_bits] = SENTINEL

        workers = int(rng.integers(1, 4))
        if workers == 1:
            state.sweep(op, live)
        else:
            for part in range(workers):
                sweep(
                    state.backing,
                    op,
                    relaxed.fixed_mask << chunk_bits,
                    relaxed.fixed_value << chunk_bits,
                    chunk_bits,
                    part,
                    workers,
                )
        for chunk in range(state.num_chunks):
            if chunk not in relaxed:
                assert (state.chunks[chunk] == SENTINEL).all()
        # expected went through the dense reference including pruned
        # chunks; only compare where the sweep was asked to act.
        mask = np.array(
            [(i >> chunk_bits) in relaxed for i in range(1 << num_qubits)]
        )
        tolerance = 1e-12 if dtype == np.complex128 else 2e-5
        np.testing.assert_allclose(
            state.backing[mask], expected[mask], atol=tolerance
        )

    @pytest.mark.parametrize("op", [
        Gate("h", (9,)), Gate("rx", (2,), (0.3,)), Gate("cx", (11, 4)),
        Gate("rz", (10,), (0.8,)), Gate("ccx", (0, 8, 11)),
    ], ids=lambda op: f"{op.name}{list(op.qubits)}")
    def test_tile_size_and_shares_cannot_change_a_bit(self, op, monkeypatch):
        # Every tile applies the same arithmetic to each amplitude, so
        # neither the tile budget nor the worker split moves a single bit.
        rng = np.random.default_rng(3)
        source = _random_state(rng, 12)
        whole = source.copy()
        sweep(whole, op, inner_bits=6)
        monkeypatch.setattr(kernels, "_TILE_AMPS", 1 << 7)
        tiled = source.copy()
        for part in range(3):
            sweep(tiled, op, inner_bits=6, part=part, parts=3)
        np.testing.assert_array_equal(tiled.view(np.uint64), whole.view(np.uint64))

    def test_shares_cover_the_live_view_exactly_once(self):
        # Doubling matrix: an amplitude is exactly doubled iff exactly one
        # share touched it.
        double = fuse_slabs([Gate("h", (3,)), Gate("h", (3,))])[0]
        object.__setattr__(double, "_matrix", 2.0 * np.eye(2, dtype=np.complex128))
        for parts in (1, 2, 3, 5):
            buffer = np.ones(1 << 9, dtype=np.complex128)
            for part in range(parts):
                sweep(buffer, double, fixed_mask=0b1_0100_0000, part=part, parts=parts)
            live = (np.arange(1 << 9) & 0b1_0100_0000) == 0
            np.testing.assert_array_equal(buffer[live], 2.0 + 0j)
            np.testing.assert_array_equal(buffer[~live], 1.0 + 0j)

    def test_dense_temporaries_are_bounded_by_the_tile_budget(self, monkeypatch):
        # The scratch a sweep uses is sized by the tile, not the state.
        monkeypatch.setattr(kernels, "_TILE_AMPS", 1 << 6)
        monkeypatch.setattr(kernels, "_scratch_store", kernels.threading.local())
        buffer = _random_state(np.random.default_rng(0), 14)
        sweep(buffer, Gate("cx", (13, 2)))
        sweep(buffer, Gate("rx", (5,), (0.1,)))
        sizes = [v.size for v in kernels._scratch_store.vectors.values()]
        assert max(sizes) <= 2 << 6


def _reference_run(circuit, version, dtype):
    """The per-chunk engine: enumerate groups, test each chunk, and apply
    the survivors one group at a time (what ``_run`` did before the sweep)."""
    n = circuit.num_qubits
    chunk_bits = max(1, min(10, n - 2))
    ordered = reorder(circuit, version.reorder_strategy)
    ops = fuse_slabs(list(ordered), chunk_bits=chunk_bits)
    state = ChunkedStateVector(n, chunk_bits, dtype=dtype)
    tracker = LiveTracker(n, version.pruning)
    total = skipped = 0
    for op in ops:
        for member in slab_members(op):
            tracker.observe(member)
        groups = chunk_pair_groups(n, chunk_bits, op.qubits)
        total += len(groups)
        if version.pruning:
            if version.pruning == "basis":
                pruned = _basis_pruned(chunk_bits, tracker.free, tracker.value)
            else:
                def pruned(chunk):
                    return chunk_is_pruned(chunk, chunk_bits, tracker.involvement)
            live = [g for g in groups if not all(pruned(m) for m in g)]
            skipped += len(groups) - len(live)
            groups = live
        state.apply_groups(op, groups)
    return state.to_dense(), total, skipped


class TestSweepMatchesPerChunkReference:
    """(c) whole runs: the sweep engine vs the per-chunk reference."""

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("version", VERSIONS, ids=lambda v: v.name)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_serial_run_is_bit_identical(self, family, version, precision):
        circuit = get_circuit(family, 9)
        dtype = np.complex128 if precision == "double" else np.complex64
        expected, total, skipped = _reference_run(circuit, version, dtype)
        result = QGpuSimulator(
            version=version,
            workers=1,
            precision=precision,
            single_norm_bound=1.0,  # never fall back: compare complex64 itself
        ).run(circuit)
        assert result.precision == precision
        assert np.array_equal(result.amplitudes, expected)
        assert result.chunk_updates_total == total
        assert result.chunk_updates_skipped == skipped

    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_worker_run_agrees_and_lands_on_worker_lanes(
        self, family, precision, monkeypatch
    ):
        # Lower the floor so 11-qubit sweeps fan out to the pool.
        monkeypatch.setattr(parallel, "AUTO_PARALLEL_THRESHOLD", 1 << 8)
        circuit = get_circuit(family, 11)
        serial = QGpuSimulator(
            workers=1, precision=precision, single_norm_bound=1.0
        ).run(circuit)
        tracer = Tracer()
        pooled = QGpuSimulator(
            workers=3, precision=precision, single_norm_bound=1.0, tracer=tracer
        ).run(circuit)
        np.testing.assert_allclose(
            pooled.amplitudes,
            serial.amplitudes,
            atol=1e-12 if precision == "double" else 2e-5,
        )
        assert pooled.chunk_updates_skipped == serial.chunk_updates_skipped
        assert any(lane.startswith("chunk-worker") for lane in tracer.lanes())
        assert tracer.counters.get("pool.tasks") > 0

    def test_engine_below_floor_runs_inline(self):
        tracer = Tracer()
        state = ChunkedStateVector(8, 4)
        with ParallelChunkEngine(2, tracer) as engine:
            state.sweep(Gate("h", (7,)), engine=engine, tracer=tracer)
        assert tracer.counters.get("pool.tasks") == 0
        assert tracer.counters.get("kernels.dense") == 1
        assert tracer.counters.get("kernel_amps.dense") == 1 << 8


class TestInterruptedRunsUseTheSweep:
    """(d) checkpoint / resume / stop_after / cancellation stay bit-exact
    and never fall back to per-chunk application."""

    @pytest.fixture(autouse=True)
    def _forbid_per_chunk_path(self, monkeypatch):
        def forbidden(self, gate, groups):
            raise AssertionError("unguarded run used the per-chunk path")

        monkeypatch.setattr(ChunkedStateVector, "apply_groups", forbidden)
        self.sweeps = 0
        original = ChunkedStateVector.sweep

        def counting(state, *args, **kwargs):
            self.sweeps += 1
            return original(state, *args, **kwargs)

        monkeypatch.setattr(ChunkedStateVector, "sweep", counting)

    @pytest.mark.parametrize("family", ["qft", "qaoa", "hchain"])
    def test_checkpoint_stop_resume_is_bit_exact(self, family, tmp_path):
        circuit = get_circuit(family, 8)
        path = tmp_path / "run.qgck"
        sim = QGpuSimulator()
        uninterrupted = sim.run(circuit)
        ops = fuse_slabs(
            list(reorder(circuit, QGPU.reorder_strategy)),
            chunk_bits=uninterrupted.state.chunk_bits,
        )
        sweeps = self.sweeps
        assert sweeps == len(ops) < len(circuit)
        boundaries = np.cumsum([len(slab_members(op)) for op in ops])
        kill_at = len(circuit) // 2
        # The run halts at the first op boundary at or past kill_at.
        halted_ops = int(np.searchsorted(boundaries, kill_at)) + 1
        halted = sim.run(
            circuit, checkpoint_every=3, checkpoint_path=path, stop_after=kill_at
        )
        assert halted.interrupted_at == boundaries[halted_ops - 1] >= kill_at
        assert self.sweeps == sweeps + halted_ops
        resumed = sim.run(circuit, resume_from=path)
        np.testing.assert_array_equal(
            resumed.amplitudes.view(np.uint64),
            uninterrupted.amplitudes.view(np.uint64),
        )
        assert resumed.chunk_updates_skipped == uninterrupted.chunk_updates_skipped
        # Resume replays the prefix through the trackers without sweeping it.
        assert self.sweeps < 2 * sweeps + halted_ops

    def test_cancellation_stops_between_sweeps(self):
        circuit = get_circuit("qft", 8)

        class CancelAfter(CancellationToken):
            def __init__(self, polls: int) -> None:
                super().__init__()
                self.polls = polls

            def poll(self) -> None:
                self.polls -= 1
                if self.polls < 0:
                    self.cancel("test")
                super().poll()

        plain = QGpuSimulator().run(circuit)
        sweeps = self.sweeps
        watched = QGpuSimulator().run(circuit, cancel=CancellationToken())
        np.testing.assert_array_equal(
            watched.amplitudes.view(np.uint64), plain.amplitudes.view(np.uint64)
        )
        self.sweeps = 0
        with pytest.raises(JobCancelled):
            # One poll before the loop, then one per op: 4 sweeps happen.
            QGpuSimulator().run(circuit, cancel=CancelAfter(5))
        assert self.sweeps == 4 < sweeps
