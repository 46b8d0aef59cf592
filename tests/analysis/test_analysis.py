"""Tests for breakdowns, rooflines, amplitude snapshots and tables."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.amplitudes import amplitude_snapshots
from repro.analysis.breakdown import average_breakdown, breakdown
from repro.analysis.tables import format_table
from repro.circuits.library import get_circuit
from repro.core.simulator import QGpuSimulator
from repro.core.versions import BASELINE, NAIVE, QGPU
from repro.errors import SimulationError
from repro.hardware.specs import P100, V100_16GB
from repro.obs.roofline import roofline_ceiling, roofline_point
from repro.statevector.state import simulate


class TestBreakdown:
    def test_shares_sum_to_at_most_one(self) -> None:
        circuit = get_circuit("qft", 31)
        for version in (BASELINE, NAIVE, QGPU):
            result = QGpuSimulator(version=version).estimate(circuit)
            share = breakdown(result)
            assert 0 <= share.cpu <= 1 and 0 <= share.transfer <= 1
            assert share.cpu + share.gpu + share.transfer + share.codec <= 1 + 1e-9

    def test_average_breakdown(self) -> None:
        circuit = get_circuit("qft", 31)
        shares = [
            breakdown(QGpuSimulator(version=v).estimate(circuit))
            for v in (BASELINE, NAIVE)
        ]
        mean = average_breakdown(shares)
        assert mean["cpu"] == pytest.approx((shares[0].cpu + shares[1].cpu) / 2)

    def test_average_of_nothing(self) -> None:
        assert average_breakdown([]) == {
            "cpu": 0.0, "gpu": 0.0, "transfer": 0.0, "codec": 0.0,
        }


class TestRoofline:
    def test_ceiling_is_min_of_bounds(self) -> None:
        low_intensity = roofline_ceiling(V100_16GB, 0.01)
        assert low_intensity == pytest.approx(0.01 * V100_16GB.mem_bandwidth)
        high_intensity = roofline_ceiling(V100_16GB, 1e6)
        assert high_intensity == V100_16GB.fp64_flops

    def test_qcs_points_are_memory_bound(self) -> None:
        circuit = get_circuit("qft", 30)
        result = QGpuSimulator(version=QGPU).estimate(circuit)
        point = roofline_point(result, P100)
        assert point.memory_bound
        assert point.arithmetic_intensity < 1.0  # well under ridge point
        assert 0 <= point.efficiency <= 1.0

    def test_baseline_collapses_past_gpu_memory(self) -> None:
        small = QGpuSimulator(version=BASELINE).estimate(get_circuit("qft", 29))
        large = QGpuSimulator(version=BASELINE).estimate(get_circuit("qft", 33))
        assert (
            roofline_point(large, P100).achieved_flops
            < 0.1 * roofline_point(small, P100).achieved_flops
        )


class TestAmplitudeSnapshots:
    def test_snapshots_match_direct_simulation(self) -> None:
        circuit = get_circuit("hchain", 8)
        snapshots = amplitude_snapshots(circuit, [0, 10, len(circuit)])
        assert snapshots[0].nonzero_fraction == pytest.approx(1 / 256)
        np.testing.assert_allclose(
            snapshots[-1].amplitudes, simulate(circuit).amplitudes, atol=1e-12
        )
        assert snapshots[-1].involved_qubits == 8

    def test_nonzero_fraction_grows(self) -> None:
        circuit = get_circuit("hchain", 10)
        snapshots = amplitude_snapshots(circuit, [0, 30, 60, 90])
        fractions = [s.nonzero_fraction for s in snapshots]
        assert fractions == sorted(fractions)

    def test_checkpoint_validation(self) -> None:
        circuit = get_circuit("gs", 6)
        with pytest.raises(SimulationError):
            amplitude_snapshots(circuit, [5, 2])
        with pytest.raises(SimulationError):
            amplitude_snapshots(circuit, [len(circuit) + 1])


class TestTables:
    def test_format_table_alignment(self) -> None:
        text = format_table(
            ["name", "value"], [["a", 1.0], ["long_name", 123.456]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5
        # All rows equal width.
        assert len({len(line) for line in lines[2:]}) == 1

    def test_float_formatting(self) -> None:
        text = format_table(["x"], [[0.123456789]])
        assert "0.1235" in text
