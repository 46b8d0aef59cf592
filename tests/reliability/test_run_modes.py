"""Every run mode executes the one fused op stream.

Guarded, checkpointed, killed, resumed and plain runs all sweep the ops of
:func:`repro.statevector.fusion.fuse_slabs`; their cursors count *source*
gates and act at the first op boundary at or past their value.  A guarded
run streams each op's live chunk groups through the transfer guard before
and after the same sweep a plain run makes.  Generated circuits over the
whole gate set check that the modes agree with the plain run bit for bit
at both precisions, the nine families check guarded runs at every chunk
size, and fixed cases pin the cadence of the norm check, the anchoring of
injected faults, the worker pool and the kernel counters of guarded runs.
"""

from __future__ import annotations

import tempfile
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.circuits.library import FAMILIES, get_circuit
from repro.core import simulator as simulator_module
from repro.core.reorder import reorder
from repro.core.simulator import QGpuSimulator
from repro.core.versions import ALL_VERSIONS, QGPU
from repro.obs import Tracer
from repro.reliability import FaultPlan, RecoveryPolicy
from repro.reliability.checkpoint import save_checkpoint
from repro.reliability.faults import FaultEvent, FaultKind
from repro.statevector import parallel
from repro.statevector.chunks import ChunkedStateVector
from repro.statevector.fusion import GateSlab, fuse_slabs, slab_members
from tests.strategies import circuits

RUN_MODES = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
VERSIONS = st.sampled_from(ALL_VERSIONS)
PRECISIONS = st.sampled_from(["double", "single"])
#: A guarded run with enough faults to exercise every recovery path.
FAULTS = dict(
    fault_plan=FaultPlan(seed=3, transfer_rate=0.25, codec_rate=0.05),
    reliability_policy=RecoveryPolicy(max_transfer_attempts=10),
)


@st.composite
def cases(draw, min_gates: int = 1):
    """A random circuit with a chunk size in ``[1, n]``."""
    circuit = draw(
        circuits(min_qubits=6, max_qubits=10, min_gates=min_gates, max_gates=40)
    )
    chunk_bits = draw(st.integers(1, circuit.num_qubits))
    return circuit, chunk_bits


def fused_ops(circuit, version, chunk_bits):
    return fuse_slabs(
        list(reorder(circuit, version.reorder_strategy)), chunk_bits=chunk_bits
    )


def op_ends(ops) -> list[int]:
    """Source cursor after each op: the run's op boundaries."""
    return list(accumulate(len(slab_members(op)) for op in ops))


def bits(result) -> np.ndarray:
    """The raw bytes of the final amplitudes, at either precision."""
    return result.amplitudes.view(np.uint8)


class TestGeneratedRunModes:
    @RUN_MODES
    @given(
        case=cases(),
        version=VERSIONS,
        precision=PRECISIONS,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_guarded_run_equals_plain_run(self, case, version, precision, seed):
        circuit, chunk_bits = case
        plain = QGpuSimulator(
            version=version, chunk_bits=chunk_bits, precision=precision
        ).run(circuit)
        guarded = QGpuSimulator(
            version=version,
            chunk_bits=chunk_bits,
            precision=precision,
            fault_plan=FaultPlan(seed=seed, transfer_rate=0.05, codec_rate=0.02),
            reliability_policy=RecoveryPolicy(max_transfer_attempts=8),
        ).run(circuit)
        assert guarded.precision == plain.precision
        np.testing.assert_array_equal(bits(guarded), bits(plain))
        assert guarded.chunk_updates_skipped == plain.chunk_updates_skipped

    @RUN_MODES
    @given(
        case=cases(min_gates=8),
        version=VERSIONS,
        precision=PRECISIONS,
        every=st.integers(1, 7),
        data=st.data(),
    )
    def test_kill_and_resume_equals_uninterrupted(
        self, case, version, precision, every, data
    ):
        circuit, chunk_bits = case
        sim = QGpuSimulator(
            version=version, chunk_bits=chunk_bits, precision=precision
        )
        uninterrupted = sim.run(circuit)
        stop_after = data.draw(st.integers(every, len(circuit)), label="stop_after")
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "run.qgck"
            killed = sim.run(
                circuit, checkpoint_every=every, checkpoint_path=path,
                stop_after=stop_after,
            )
            assume(path.exists())
            resumed = sim.run(circuit, resume_from=path)
        assert resumed.reliability.resumed_from_gate in op_ends(
            fused_ops(circuit, version, chunk_bits)
        )
        assert killed.reliability.checkpoints_written >= 1
        assert resumed.precision == uninterrupted.precision
        np.testing.assert_array_equal(bits(resumed), bits(uninterrupted))
        assert resumed.chunk_updates_total == uninterrupted.chunk_updates_total
        assert resumed.chunk_updates_skipped == uninterrupted.chunk_updates_skipped

    @RUN_MODES
    @given(
        case=cases(),
        version=VERSIONS,
        precision=st.sampled_from(["double", "single"]),
        stop_after=st.integers(0, 45),
    )
    def test_stop_after_halts_at_the_first_op_boundary(
        self, case, version, precision, stop_after
    ):
        circuit, chunk_bits = case
        result = QGpuSimulator(
            version=version, chunk_bits=chunk_bits, precision=precision
        ).run(circuit, stop_after=stop_after)
        if stop_after == 0:
            assert result.interrupted_at == 0
            return
        ends = op_ends(fused_ops(circuit, version, chunk_bits))
        first = min((end for end in ends if end >= stop_after), default=len(circuit))
        # Halting at (or past) the last boundary is a complete run.
        expected = first if first < len(circuit) else None
        assert result.interrupted_at == expected

    @RUN_MODES
    @given(case=cases(), version=VERSIONS, data=st.data())
    def test_checkpoint_inside_a_slab_resumes(self, case, version, data):
        circuit, chunk_bits = case
        ops = fused_ops(circuit, version, chunk_bits)
        starts = [0] + op_ends(ops)[:-1]
        slabs = [
            (start, len(op.gates))
            for start, op in zip(starts, ops)
            if isinstance(op, GateSlab)
        ]
        assume(slabs)
        start, size = data.draw(st.sampled_from(slabs))
        cursor = start + data.draw(st.integers(1, size - 1))
        # The state after the first ``cursor`` source gates, one by one.
        state = ChunkedStateVector(circuit.num_qubits, chunk_bits)
        for gate in list(reorder(circuit, version.reorder_strategy))[:cursor]:
            state.apply(gate)
        sim = QGpuSimulator(version=version, chunk_bits=chunk_bits)
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / "hand.qgck"
            save_checkpoint(
                path, state, gate_cursor=cursor,
                circuit_name=circuit.name, version_name=version.name,
            )
            resumed = sim.run(circuit, resume_from=path)
        assert resumed.reliability.resumed_from_gate == cursor
        np.testing.assert_allclose(
            resumed.amplitudes, sim.run(circuit).amplitudes, atol=1e-12
        )


@pytest.mark.parametrize("chunk_bits", range(1, 10))
@pytest.mark.parametrize("version", ALL_VERSIONS, ids=lambda v: v.name)
@pytest.mark.parametrize("family", FAMILIES)
def test_guarded_run_is_bit_identical_on_the_families(family, version, chunk_bits):
    circuit = get_circuit(family, 9)
    plain = QGpuSimulator(version=version, chunk_bits=chunk_bits).run(circuit)
    guarded = QGpuSimulator(version=version, chunk_bits=chunk_bits, **FAULTS).run(
        circuit
    )
    assert guarded.reliability.total_faults > 0
    np.testing.assert_array_equal(bits(guarded), bits(plain))


class TestGuardedRunsShareThePlainSweep:
    def test_guarded_run_on_a_worker_pool_equals_the_plain_pool_run(
        self, monkeypatch
    ):
        # Lower the floor so 9-qubit sweeps fan out to the pool.
        monkeypatch.setattr(parallel, "AUTO_PARALLEL_THRESHOLD", 1 << 6)
        circuit = get_circuit("qaoa", 9)
        plain = QGpuSimulator(chunk_bits=3, workers=2).run(circuit)
        tracer = Tracer()
        guarded = QGpuSimulator(chunk_bits=3, workers=2, tracer=tracer, **FAULTS).run(
            circuit
        )
        assert guarded.reliability.total_faults > 0
        assert tracer.counters.get("pool.tasks") > 0
        np.testing.assert_array_equal(bits(guarded), bits(plain))

    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_traced_guarded_run_records_the_plain_kernel_counters(self, precision):
        circuit = get_circuit("qft", 9)

        def kernel_counters(**options):
            tracer = Tracer()
            QGpuSimulator(
                chunk_bits=4, precision=precision, tracer=tracer, **options
            ).run(circuit)
            return {
                name: value
                for name, value in tracer.counters.snapshot().items()
                if name.startswith(("kernels.", "kernel_amps."))
            }

        plain = kernel_counters()
        assert plain  # the sweep books its work
        assert kernel_counters(**FAULTS) == plain


class TestCursorAnchors:
    def test_norm_check_fires_at_the_first_op_boundary_past_each_multiple(
        self, monkeypatch
    ):
        circuit = get_circuit("qft", 8)
        every = 5
        wheres = []

        def recording(chunks, tolerance, where=""):
            wheres.append(where)
            return check_norm(chunks, tolerance, where=where)

        check_norm = simulator_module.check_norm
        monkeypatch.setattr(simulator_module, "check_norm", recording)
        tracer = Tracer()
        QGpuSimulator(
            reliability_policy=RecoveryPolicy(norm_check_every=every), tracer=tracer
        ).run(circuit)
        ends = op_ends(fused_ops(circuit, QGPU, 6))
        # For each multiple of ``every``, the first op boundary at or past
        # it; a slab crossing two multiples checks once.
        checked = sorted(
            {
                next(end for end in ends if end >= multiple)
                for multiple in range(every, len(circuit) + 1, every)
            }
        )
        spans = [span for span in tracer.spans if span.name == "norm_check"]
        assert [span.attrs["gate"] for span in spans] == [end - 1 for end in checked]
        assert wheres == [f"{circuit.name} after gate {end - 1}" for end in checked]
        assert len(checked) < len(circuit) // every + 1  # one slab crosses two

    def test_forced_fault_at_a_slabs_first_gate_fires_and_recovers(self):
        circuit = get_circuit("qft", 8)
        ops = fused_ops(circuit, QGPU, 6)
        starts = [0] + op_ends(ops)[:-1]
        start = next(
            s for s, op in zip(starts, ops)
            if isinstance(op, GateSlab) and len(op.gates) >= 3
        )
        plain = QGpuSimulator().run(circuit)

        def forced_at(gate_index):
            plan = FaultPlan(
                forced=(FaultEvent(FaultKind.BIT_FLIP, gate_index, detail=7.0),)
            )
            return QGpuSimulator(fault_plan=plan).run(circuit)

        fired = forced_at(start)
        assert fired.reliability.total_faults == 1
        assert fired.reliability.retries == 1
        np.testing.assert_array_equal(bits(fired), bits(plain))
        # Faults anchor to an op's first source gate: one named after a
        # later member of the same slab has no transfer to hit.
        assert forced_at(start + 1).reliability.total_faults == 0
