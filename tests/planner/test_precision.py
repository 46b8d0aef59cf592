"""Tests for mixed-precision execution: complex64 fast path + norm guard."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits.library import get_circuit
from repro.core.simulator import QGpuSimulator
from repro.core.versions import ALL_VERSIONS
from repro.obs import LogicalClock, Tracer
from repro.planner import DEFAULT_NORM_BOUND, norm_deviation, resolve_dtype
from repro.errors import AnalysisError

#: Amplitude agreement bound for complex64 runs of the benchmark-sized
#: circuits below: well inside what docs/planner.md documents for the
#: norm guard (the guard bound is on the 2-norm, this is per-amplitude).
AMPLITUDE_ATOL = 1e-5


class TestDtypeResolution:
    def test_known_precisions(self) -> None:
        assert resolve_dtype("single") == np.complex64
        assert resolve_dtype("double") == np.complex128

    def test_unknown_precision_raises(self) -> None:
        with pytest.raises(AnalysisError):
            resolve_dtype("half")


class TestNormDeviation:
    def test_unit_state_has_zero_deviation(self) -> None:
        state = np.zeros(8, dtype=np.complex128)
        state[0] = 1.0
        assert norm_deviation(state) == 0.0

    def test_unnormalised_state_measured(self) -> None:
        state = np.full(4, 0.5 + 0j)  # norm^2 = 1 exactly
        assert norm_deviation(state) == pytest.approx(0.0, abs=1e-15)
        assert norm_deviation(2 * state) == pytest.approx(3.0)


class TestSinglePrecisionAgreement:
    @pytest.mark.parametrize("version", ALL_VERSIONS, ids=lambda v: v.name)
    def test_all_versions_agree_with_double(self, version) -> None:
        circuit = get_circuit("qft", 8)
        double = QGpuSimulator(version=version).run(circuit)
        single = QGpuSimulator(version=version, precision="single").run(circuit)
        assert double.amplitudes.dtype == np.complex128
        assert single.precision == "single"
        assert single.amplitudes.dtype == np.complex64
        assert not single.precision_fallback
        assert single.norm_deviation is not None
        assert single.norm_deviation <= DEFAULT_NORM_BOUND
        np.testing.assert_allclose(
            single.amplitudes, double.amplitudes, atol=AMPLITUDE_ATOL
        )

    def test_double_path_is_bit_identical_and_default(self) -> None:
        circuit = get_circuit("qaoa", 8)
        first = QGpuSimulator(workers=1).run(circuit)
        second = QGpuSimulator(workers=1).run(circuit)
        assert first.precision == "double"
        assert first.amplitudes.tobytes() == second.amplitudes.tobytes()


class TestFallback:
    def test_forced_violation_reruns_at_double(self) -> None:
        tracer = Tracer(clock=LogicalClock())
        simulator = QGpuSimulator(
            precision="single", single_norm_bound=0.0, tracer=tracer
        )
        result = simulator.run(get_circuit("qft", 8))
        assert result.precision_fallback
        assert result.precision == "double"
        assert result.amplitudes.dtype == np.complex128
        assert result.norm_deviation is not None  # the single run's deviation
        assert tracer.counters.get("planner.fallbacks") == 1
        # The fallback result is the deterministic double-precision answer.
        reference = QGpuSimulator().run(get_circuit("qft", 8))
        assert result.amplitudes.tobytes() == reference.amplitudes.tobytes()

    def test_clean_single_run_does_not_count_fallback(self) -> None:
        tracer = Tracer(clock=LogicalClock())
        QGpuSimulator(precision="single", tracer=tracer).run(
            get_circuit("qft", 8)
        )
        assert tracer.counters.get("planner.fallbacks") == 0

    def test_single_checkpoint_resumes_bit_exactly(self, tmp_path) -> None:
        circuit = get_circuit("qft", 8)
        simulator = QGpuSimulator(precision="single")
        uninterrupted = simulator.run(circuit)
        path = tmp_path / "single.qgck"
        killed = simulator.run(
            circuit, checkpoint_every=4, checkpoint_path=path, stop_after=20
        )
        assert killed.reliability.checkpoints_written >= 1
        # The checkpoint's precision wins over the resuming simulator's.
        resumed = QGpuSimulator(precision="double").run(circuit, resume_from=path)
        assert resumed.precision == "single"
        assert resumed.amplitudes.dtype == np.complex64
        assert resumed.norm_deviation == uninterrupted.norm_deviation
        assert resumed.amplitudes.tobytes() == uninterrupted.amplitudes.tobytes()


class TestAutoPrecision:
    def test_auto_runs_small_dense_circuits_in_single(self) -> None:
        result = QGpuSimulator(backend="auto", precision="auto").run(
            get_circuit("qft", 9)
        )
        assert result.backend == "statevector"
        assert result.precision == "single"

    def test_explicit_double_wins_over_auto_backend(self) -> None:
        result = QGpuSimulator(backend="auto", precision="double").run(
            get_circuit("qft", 9)
        )
        assert result.precision == "double"
        assert result.amplitudes.dtype == np.complex128
