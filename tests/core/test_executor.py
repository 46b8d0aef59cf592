"""Tests for the timed executor (machine-model execution)."""

from __future__ import annotations

import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import FAMILIES, get_circuit
from repro.core.executor import TimedExecutor, TimedResult
from repro.core.versions import (
    ALL_VERSIONS,
    BASELINE,
    NAIVE,
    OVERLAP,
    PRUNING,
    QGPU,
    REORDER,
)
from repro.errors import SimulationError
from repro.hardware.machine import Machine
from repro.hardware.specs import (
    AMP_BYTES,
    MULTI_P4_MACHINE,
    PAPER_MACHINE,
    V100_MACHINE,
)


@pytest.fixture(scope="module")
def executor() -> TimedExecutor:
    return TimedExecutor(Machine(PAPER_MACHINE))


@pytest.fixture(scope="module")
def qft_large() -> QuantumCircuit:
    return get_circuit("qft", 32)


class TestRegimes:
    def test_small_circuit_is_gpu_resident(self, executor: TimedExecutor) -> None:
        circuit = get_circuit("qft", 24)  # 256 MiB << 16 GiB
        for version in ALL_VERSIONS:
            result = executor.execute(circuit, version)
            # Only the terminal readout moves data.
            assert result.bytes_h2d == 0
            assert result.bytes_d2h <= AMP_BYTES << 24
            assert result.cpu_seconds == 0

    def test_large_circuit_streams(self, executor: TimedExecutor, qft_large) -> None:
        result = executor.execute(qft_large, NAIVE)
        # Every gate round-trips the full state.
        expected = len(qft_large) * (AMP_BYTES << 32)
        assert result.bytes_h2d == pytest.approx(expected, rel=1e-6)
        assert result.bytes_d2h == pytest.approx(expected, rel=1e-6)

    def test_streaming_bytes_symmetric(self, executor: TimedExecutor, qft_large) -> None:
        for version in (NAIVE, OVERLAP, PRUNING):
            result = executor.execute(qft_large, version)
            assert result.bytes_h2d == pytest.approx(result.bytes_d2h)

    def test_baseline_uses_cpu_heavily(self, executor: TimedExecutor, qft_large) -> None:
        result = executor.execute(qft_large, BASELINE)
        shares = result.breakdown()
        assert shares["cpu"] > 0.8  # paper Fig. 2: ~89%
        assert shares["gpu"] < 0.05


class TestVersionOrdering:
    """The paper's headline monotonicity: each optimization helps."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_stacked_versions_are_monotone(self, executor, family: str) -> None:
        circuit = get_circuit(family, 32)
        overlap = executor.execute(circuit, OVERLAP).total_seconds
        naive = executor.execute(circuit, NAIVE).total_seconds
        pruning = executor.execute(circuit, PRUNING).total_seconds
        reorder = executor.execute(circuit, REORDER).total_seconds
        qgpu = executor.execute(circuit, QGPU, compression_ratio=0.6).total_seconds
        assert overlap < naive
        assert pruning <= overlap * 1.001
        assert reorder <= pruning * 1.001
        assert qgpu <= reorder * 1.001

    def test_naive_is_slower_than_baseline_at_scale(self, executor, qft_large) -> None:
        naive = executor.execute(qft_large, NAIVE).total_seconds
        baseline = executor.execute(qft_large, BASELINE).total_seconds
        assert naive > baseline  # paper Fig. 3

    def test_compression_ratio_scales_transfer(self, executor, qft_large) -> None:
        full = executor.execute(qft_large, QGPU, compression_ratio=1.0)
        half = executor.execute(qft_large, QGPU, compression_ratio=0.5)
        assert half.bytes_d2h == pytest.approx(0.5 * full.bytes_d2h, rel=1e-6)
        assert half.total_seconds < full.total_seconds

    def test_pruning_helps_iqp_more_than_qft(self, executor) -> None:
        results = {}
        for family in ("iqp", "qft"):
            circuit = get_circuit(family, 32)
            overlap = executor.execute(circuit, OVERLAP).total_seconds
            pruning = executor.execute(circuit, PRUNING).total_seconds
            results[family] = pruning / overlap
        assert results["iqp"] < results["qft"]  # paper Table II / Fig. 12


class TestAccounting:
    def test_totals_equal_sum_of_gate_records(self, executor, qft_large) -> None:
        result = executor.execute(qft_large, OVERLAP)
        assert result.total_seconds == pytest.approx(
            sum(g.seconds for g in result.per_gate)
        )
        assert result.bytes_h2d == pytest.approx(
            sum(g.bytes_h2d for g in result.per_gate)
        )

    def test_breakdown_fractions_bounded(self, executor, qft_large) -> None:
        for version in ALL_VERSIONS:
            shares = executor.execute(qft_large, version).breakdown()
            assert all(0 <= value <= 1.0 + 1e-9 for value in shares.values())
            assert shares["cpu"] + shares["transfer"] <= 1.0 + 1e-9

    def test_live_fraction_recorded(self, executor) -> None:
        circuit = get_circuit("iqp", 31)
        result = executor.execute(circuit, PRUNING)
        fractions = [g.live_fraction for g in result.per_gate if g.name != "<readout>"]
        assert fractions[0] < 1e-6
        assert max(fractions) == 1.0

    def test_gpu_flops_positive_when_streaming(self, executor, qft_large) -> None:
        result = executor.execute(qft_large, OVERLAP)
        assert result.gpu_flops > 0
        assert result.gpu_bytes_touched > 0

    def test_csv_export_round_trips_totals(self, executor) -> None:
        import csv
        import io

        result = executor.execute(get_circuit("gs", 31), PRUNING)
        rows = list(csv.DictReader(io.StringIO(result.to_csv())))
        assert len(rows) == len(result.per_gate)
        total = sum(float(row["seconds"]) for row in rows)
        assert total == pytest.approx(result.total_seconds)
        assert rows[0]["name"] == result.per_gate[0].name


class TestMultiGpu:
    def test_multi_gpu_faster_than_single(self) -> None:
        circuit = get_circuit("qft", 31)
        single = TimedExecutor(Machine(MULTI_P4_MACHINE.with_gpu_count(1)))
        quad = TimedExecutor(Machine(MULTI_P4_MACHINE))
        t1 = single.execute(circuit, QGPU, 0.5).total_seconds
        t4 = quad.execute(circuit, QGPU, 0.5).total_seconds
        assert t4 < t1
        assert t4 > t1 / 4.5  # no superlinear magic

    def test_multi_gpu_baseline_uses_pooled_capacity(self) -> None:
        circuit = get_circuit("gs", 31)  # 32 GiB state = 4x8 GiB pool
        quad = TimedExecutor(Machine(MULTI_P4_MACHINE))
        result = quad.execute(circuit, BASELINE)
        # Pool capacity is 4x7.76 GiB = ~31 GiB < 32 GiB: still hybrid.
        assert result.cpu_seconds > 0


class TestValidation:
    def test_state_exceeding_host_rejected(self) -> None:
        executor = TimedExecutor(Machine(V100_MACHINE))  # 80 GiB host
        with pytest.raises(SimulationError, match="host"):
            executor.execute(get_circuit("gs", 33), OVERLAP)

    def test_bad_compression_ratio_rejected(self, executor, qft_large) -> None:
        with pytest.raises(SimulationError):
            executor.execute(qft_large, QGPU, compression_ratio=0.0)
        with pytest.raises(SimulationError):
            executor.execute(qft_large, QGPU, compression_ratio=1.5)

    @pytest.mark.parametrize("option", ["fault_plan", "reliability_policy"])
    def test_fault_options_retired(self, option: str) -> None:
        # The timeline is fault-free; faults act on the functional engine.
        with pytest.raises(TypeError):
            TimedExecutor(Machine(PAPER_MACHINE), **{option: None})

    def test_timed_records_carry_no_fault_fields(self, executor, qft_large) -> None:
        result = executor.execute(qft_large, QGPU)
        assert result.to_csv().splitlines()[0] == (
            "index,name,seconds,cpu_seconds,gpu_seconds,transfer_seconds,"
            "codec_seconds,bytes_h2d,bytes_d2h,live_fraction"
        )
        assert set(result.breakdown()) == {"cpu", "gpu", "transfer", "codec", "other"}
