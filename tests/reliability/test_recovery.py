"""End-to-end recovery properties: faulted and resumed runs stay bit-exact.

These are the acceptance properties of the reliability layer:

* a run with injected transfer corruption + retry policy completes with a
  final state bit-identical to a fault-free run;
* checkpoint -> kill -> resume at any gate reproduces the uninterrupted
  final state bit-exactly;
* the same fault-plan seed yields identical injected faults and identical
  recovered results across runs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.library import get_circuit
from repro.core.simulator import QGpuSimulator
from repro.core.versions import QGPU
from repro.errors import (
    CheckpointError,
    FaultInjectionError,
    IntegrityError,
    SimulationError,
)
from repro.reliability import FaultPlan, RecoveryPolicy


def _bits(clean_result) -> np.ndarray:
    return clean_result.amplitudes.view(np.uint64)


class TestFaultedRunsAreBitExact:
    @pytest.mark.parametrize("family", ["bv", "qft", "qaoa"])
    def test_recovered_run_matches_fault_free(self, family: str) -> None:
        circuit = get_circuit(family, 8)
        # Guarded runs sweep the same fused op stream as a plain run.
        clean = QGpuSimulator().run(circuit)
        plan = FaultPlan(seed=42, transfer_rate=0.08, codec_rate=0.03)
        faulty = QGpuSimulator(fault_plan=plan).run(circuit)
        assert faulty.reliability.total_faults > 0
        np.testing.assert_array_equal(_bits(clean), _bits(faulty))

    def test_same_seed_identical_faults_and_results(self) -> None:
        circuit = get_circuit("qft", 8)
        plan = FaultPlan(seed=99, transfer_rate=0.1, codec_rate=0.05)
        first = QGpuSimulator(fault_plan=plan).run(circuit)
        second = QGpuSimulator(fault_plan=plan).run(circuit)
        assert first.reliability.faults == second.reliability.faults
        assert first.reliability.retries == second.reliability.retries
        np.testing.assert_array_equal(_bits(first), _bits(second))

    @pytest.mark.parametrize("precision", ["double", "single"])
    def test_norm_guard_catches_unchecked_corruption(self, precision) -> None:
        circuit = get_circuit("qft", 6)
        plan = FaultPlan(seed=5, transfer_rate=0.3)
        policy = RecoveryPolicy(verify_crc=False, norm_check_every=1)
        with pytest.raises(IntegrityError, match="norm conservation"):
            QGpuSimulator(
                fault_plan=plan, reliability_policy=policy, precision=precision
            ).run(circuit)

    def test_norm_check_passes_a_healthy_single_precision_run(self) -> None:
        # complex64 rounding moves rqc_16's norm by ~1e-6, past the double
        # tolerance: the check accumulates in float64 and judges a
        # complex64 state against the run's single-precision bound.
        policy = RecoveryPolicy(norm_check_every=1)
        result = QGpuSimulator(precision="single", reliability_policy=policy).run(
            get_circuit("rqc", 16)
        )
        assert result.precision == "single"
        assert not result.precision_fallback

    def test_oom_degradation_halves_chunks_and_stays_exact(self) -> None:
        circuit = get_circuit("bv", 8)
        clean = QGpuSimulator().run(circuit)
        degraded = QGpuSimulator(fault_plan=FaultPlan(seed=1, oom_failures=2)).run(circuit)
        assert degraded.reliability.degraded_chunk_bits is not None
        assert degraded.state.chunk_bits < clean.state.chunk_bits
        np.testing.assert_array_equal(_bits(clean), _bits(degraded))

    def test_oom_without_halving_keeps_chunk_bits(self) -> None:
        circuit = get_circuit("bv", 8)
        clean = QGpuSimulator().run(circuit)
        kept = QGpuSimulator(
            fault_plan=FaultPlan(seed=1, oom_failures=2),
            reliability_policy=RecoveryPolicy(halve_chunk_on_oom=False),
        ).run(circuit)
        assert kept.reliability.faults == {"oom": 2}
        assert kept.reliability.degraded_chunk_bits is None
        assert kept.state.chunk_bits == clean.state.chunk_bits
        np.testing.assert_array_equal(_bits(clean), _bits(kept))

    def test_oom_past_the_allocation_budget_raises(self) -> None:
        policy = RecoveryPolicy(max_alloc_attempts=3)
        with pytest.raises(FaultInjectionError, match="allocation failed 3 times"):
            QGpuSimulator(
                fault_plan=FaultPlan(seed=1, oom_failures=3),
                reliability_policy=policy,
            ).run(get_circuit("bv", 8))

    def test_repeated_codec_faults_disable_compression_and_stay_exact(self) -> None:
        circuit = get_circuit("qft", 8)
        clean = QGpuSimulator(version=QGPU).run(circuit)
        faulty = QGpuSimulator(
            version=QGPU,
            fault_plan=FaultPlan(seed=6, codec_rate=0.1),
            reliability_policy=RecoveryPolicy(codec_fault_limit=3),
        ).run(circuit)
        assert faulty.reliability.faults == {"decode": 3}
        assert faulty.reliability.compression_disabled_at_gate is not None
        np.testing.assert_array_equal(_bits(clean), _bits(faulty))


class TestCheckpointResume:
    @settings(max_examples=12, deadline=None)
    @given(
        family=st.sampled_from(["bv", "qft", "qaoa", "gs"]),
        kill_fraction=st.floats(min_value=0.05, max_value=0.95),
        every=st.integers(min_value=1, max_value=7),
    )
    def test_kill_resume_is_bit_exact(
        self, tmp_path_factory, family: str, kill_fraction: float, every: int
    ) -> None:
        circuit = get_circuit(family, 7)
        kill_at = max(1, int(len(circuit) * kill_fraction))
        path = tmp_path_factory.mktemp("ckpt") / "run.qgck"
        sim = QGpuSimulator()
        uninterrupted = sim.run(circuit)
        interrupted = sim.run(
            circuit, checkpoint_every=every, checkpoint_path=path, stop_after=kill_at
        )
        # The kill lands on the first op boundary at or past kill_at (or
        # the run completes when no boundary lies before the end).
        assert interrupted.interrupted_at is None or (
            kill_at <= interrupted.interrupted_at < len(circuit)
        )
        if not path.exists():
            return  # killed before the first checkpoint; nothing to resume
        resumed = sim.run(circuit, resume_from=path)
        assert resumed.reliability.resumed_from_gate is not None
        np.testing.assert_array_equal(_bits(uninterrupted), _bits(resumed))
        assert resumed.chunk_updates_total == uninterrupted.chunk_updates_total
        assert resumed.chunk_updates_skipped == uninterrupted.chunk_updates_skipped

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_faulted_kill_resume_is_bit_exact(self, tmp_path_factory, seed: int) -> None:
        """Faults before AND after the kill still recover to the exact state."""
        circuit = get_circuit("qaoa", 7)
        plan = FaultPlan(seed=seed, transfer_rate=0.05)
        path = tmp_path_factory.mktemp("ckpt") / "run.qgck"
        clean = QGpuSimulator().run(circuit)
        # A generous retry budget keeps exhaustion probability negligible
        # across arbitrary hypothesis-chosen seeds.
        sim = QGpuSimulator(
            fault_plan=plan,
            reliability_policy=RecoveryPolicy(max_transfer_attempts=6),
        )
        sim.run(circuit, checkpoint_every=4, checkpoint_path=path,
                stop_after=len(circuit) // 2)
        if not path.exists():
            return
        resumed = sim.run(circuit, resume_from=path)
        np.testing.assert_array_equal(_bits(clean), _bits(resumed))

    def test_resume_rejects_wrong_circuit(self, tmp_path) -> None:
        path = tmp_path / "run.qgck"
        sim = QGpuSimulator()
        sim.run(get_circuit("qft", 7), checkpoint_every=3, checkpoint_path=path,
                stop_after=6)
        with pytest.raises(CheckpointError, match="circuit"):
            sim.run(get_circuit("bv", 7), resume_from=path)

    def test_resume_rejects_wrong_width(self, tmp_path) -> None:
        path = tmp_path / "run.qgck"
        sim = QGpuSimulator()
        sim.run(get_circuit("qft", 7), checkpoint_every=3, checkpoint_path=path,
                stop_after=6)
        with pytest.raises(CheckpointError, match="width"):
            sim.run(get_circuit("qft", 8), resume_from=path)

    def test_checkpoint_every_requires_path(self) -> None:
        with pytest.raises(SimulationError, match="checkpoint_path"):
            QGpuSimulator().run(get_circuit("bv", 6), checkpoint_every=2)


class TestChunkBitsValidation:
    @pytest.mark.parametrize("bad", [0, -1, -10])
    def test_nonpositive_chunk_bits_rejected(self, bad: int) -> None:
        with pytest.raises(SimulationError, match="chunk_bits"):
            QGpuSimulator(chunk_bits=bad)

    def test_valid_chunk_bits_still_accepted(self) -> None:
        result = QGpuSimulator(chunk_bits=3).run(get_circuit("bv", 6))
        assert result.state.chunk_bits == 3
