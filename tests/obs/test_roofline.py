"""Rooflines: modelled points (Fig. 15) and measured kernel placements."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.hardware.specs import A100_40GB, P4, P100, V100_16GB, V100_32GB
from repro.obs.roofline import (
    KernelRoofline,
    RooflinePoint,
    kernel_rooflines,
    render_kernel_rooflines,
    roofline_ceiling,
    roofline_point,
    rooflines_payload,
)

#: Every GPU preset; each must give the textbook two-segment roofline.
GPUS = [P100, V100_16GB, V100_32GB, A100_40GB, P4]

#: 10 GB/s bound keeps the arithmetic in round numbers.
BOUND = 10e9

#: A counter snapshot as the chunk engines would leave it: two timed
#: kinds plus an invocation-only structural marker (fused_slab).
COUNTERS = {
    "kernels.diagonal": 4,
    "kernel_amps.diagonal": 1_000_000.0,
    "kernel_bytes.diagonal": 32_000_000.0,
    "kernel_seconds.diagonal": 0.008,
    "kernels.dense": 2,
    "kernel_amps.dense": 500_000.0,
    "kernel_bytes.dense": 16_000_000.0,
    "kernel_seconds.dense": 0.004,
    "kernels.fused_slab": 3,  # no seconds -> structural, skipped
    "gates_applied": 42,  # unrelated counters are ignored
}


def timing(flops: float, nbytes: float, seconds: float) -> SimpleNamespace:
    """A stand-in for a TimedResult: roofline_point reads only these fields."""
    return SimpleNamespace(
        circuit_name="qft_12", version="Q-GPU", gpu_flops=flops,
        gpu_bytes_touched=nbytes, total_seconds=seconds,
    )


class TestModelledCeiling:
    @pytest.mark.parametrize("gpu", GPUS, ids=lambda gpu: gpu.name)
    def test_bandwidth_slope_below_the_ridge_and_peak_above(self, gpu):
        ridge = gpu.fp64_flops / gpu.mem_bandwidth
        below, above = ridge / 4, ridge * 4
        assert roofline_ceiling(gpu, below) == pytest.approx(below * gpu.mem_bandwidth)
        assert roofline_ceiling(gpu, above) == gpu.fp64_flops
        assert roofline_ceiling(gpu, ridge) == pytest.approx(gpu.fp64_flops)

    @pytest.mark.parametrize("gpu", GPUS, ids=lambda gpu: gpu.name)
    def test_ceiling_never_falls_as_intensity_grows(self, gpu):
        intensities = [0.0, 0.01, 0.1, 1.0, 10.0, 100.0, 1e4]
        ceilings = [roofline_ceiling(gpu, ai) for ai in intensities]
        assert ceilings == sorted(ceilings)
        assert ceilings[0] == 0.0


class TestModelledPoint:
    def test_coordinates_come_from_the_timed_counts(self):
        point = roofline_point(timing(flops=8e9, nbytes=16e9, seconds=2.0), V100_16GB)
        assert point.label == "qft_12/Q-GPU"
        assert point.arithmetic_intensity == pytest.approx(0.5)
        assert point.achieved_flops == pytest.approx(4e9)
        assert point.ceiling_flops == pytest.approx(0.5 * V100_16GB.mem_bandwidth)
        assert point.efficiency == pytest.approx(4e9 / (0.5 * V100_16GB.mem_bandwidth))

    def test_no_bytes_touched_places_the_point_at_zero_intensity(self):
        point = roofline_point(timing(flops=8e9, nbytes=0, seconds=2.0), V100_16GB)
        assert point.arithmetic_intensity == 0.0
        assert point.ceiling_flops == 0.0
        assert point.efficiency == 0.0

    def test_zero_seconds_gives_zero_achieved_flops(self):
        point = roofline_point(timing(flops=8e9, nbytes=16e9, seconds=0.0), V100_16GB)
        assert point.achieved_flops == 0.0
        assert point.memory_bound

    def test_memory_bound_holds_up_to_the_ceiling_only(self):
        at = RooflinePoint("at", 1.0, achieved_flops=5.0, ceiling_flops=5.0)
        over = RooflinePoint("over", 1.0, achieved_flops=6.0, ceiling_flops=5.0)
        assert at.memory_bound and at.efficiency == 1.0
        assert not over.memory_bound and over.efficiency == pytest.approx(1.2)

    def test_a_real_timed_run_matches_its_field_copy(self):
        from repro.circuits.library import get_circuit
        from repro.core.simulator import QGpuSimulator

        result = QGpuSimulator().estimate(get_circuit("qft", 30))
        copy = SimpleNamespace(
            circuit_name=result.circuit_name, version=result.version,
            gpu_flops=result.gpu_flops, gpu_bytes_touched=result.gpu_bytes_touched,
            total_seconds=result.total_seconds,
        )
        assert roofline_point(result, P100) == roofline_point(copy, P100)


class TestKernelRooflines:
    def test_rows_only_for_timed_kinds_sorted_by_seconds(self):
        rows = kernel_rooflines(COUNTERS, bandwidth=BOUND)
        assert [row.kind for row in rows] == ["diagonal", "dense"]

    def test_derived_quantities(self):
        diagonal = kernel_rooflines(COUNTERS, bandwidth=BOUND)[0]
        assert diagonal.calls == 4
        assert diagonal.amps_per_second == pytest.approx(1_000_000 / 0.008)
        assert diagonal.bytes_per_amp == pytest.approx(32.0)
        assert diagonal.achieved_bandwidth == pytest.approx(4e9)
        assert diagonal.efficiency == pytest.approx(0.4)

    def test_zero_seconds_row_yields_zero_rates(self):
        row = KernelRoofline(
            kind="gather", calls=1, amps=0.0, bytes=0.0, seconds=0.0,
            bound_bandwidth=BOUND,
        )
        assert row.amps_per_second == 0.0
        assert row.bytes_per_amp == 0.0
        assert row.achieved_bandwidth == 0.0

    def test_zero_bound_yields_zero_efficiency(self):
        rows = kernel_rooflines(COUNTERS, bandwidth=0.0)
        assert all(row.efficiency == 0.0 for row in rows)

    def test_empty_counters_give_no_rows(self):
        assert kernel_rooflines({}, bandwidth=BOUND) == []


class TestRendering:
    def test_table_names_the_dominant_kernel(self):
        text = render_kernel_rooflines(kernel_rooflines(COUNTERS, BOUND))
        assert "dominant kernel: diagonal at 40% of the bandwidth bound" in text
        assert "dense" in text

    def test_empty_rows_explain_themselves(self):
        assert "no timed kernel work" in render_kernel_rooflines([])

    def test_payload_is_json_safe_and_ordered(self):
        rows = kernel_rooflines(COUNTERS, BOUND)
        payload = rooflines_payload(rows)
        assert [entry["kind"] for entry in payload] == ["diagonal", "dense"]
        assert payload[0]["efficiency"] == pytest.approx(0.4)
        assert all(
            isinstance(value, (str, float)) for entry in payload
            for value in entry.values()
        )


class TestTracedRunWiring:
    """A real traced run leaves the counters the roofline feeds on."""

    def test_simulation_records_kernel_work_counters(self):
        from repro.circuits.library import get_circuit
        from repro.core.simulator import QGpuSimulator
        from repro.core.versions import VERSIONS_BY_NAME
        from repro.obs import Tracer, WallClock

        tracer = Tracer(clock=WallClock())
        simulator = QGpuSimulator(
            version=VERSIONS_BY_NAME["Q-GPU"], workers=1, tracer=tracer
        )
        simulator.run(get_circuit("qft", 8))
        counters = tracer.counters.snapshot()
        timed = [k for k in counters if k.startswith("kernel_seconds.")]
        assert timed, "traced functional run recorded no kernel work"
        rows = kernel_rooflines(counters, bandwidth=BOUND)
        assert rows and rows[0].seconds > 0
        assert rows[0].amps > 0
        # DES byte convention: every amp moves 2 x itemsize bytes.
        assert rows[0].bytes == pytest.approx(rows[0].amps * 32.0)

    def test_logical_clock_run_skips_wall_seconds_but_keeps_work(self):
        """Deterministic traces stay byte-identical: no wall time in them."""
        from repro.circuits.library import get_circuit
        from repro.core.simulator import QGpuSimulator
        from repro.core.versions import VERSIONS_BY_NAME
        from repro.obs import LogicalClock, Tracer

        tracer = Tracer(clock=LogicalClock())
        QGpuSimulator(
            version=VERSIONS_BY_NAME["Q-GPU"], workers=1, tracer=tracer
        ).run(get_circuit("qft", 8))
        counters = tracer.counters.snapshot()
        assert not any(k.startswith("kernel_seconds.") for k in counters)
        assert any(k.startswith("kernel_amps.") for k in counters)
        assert kernel_rooflines(counters, bandwidth=BOUND) == []


    def test_concurrent_runs_book_kernel_work_into_their_own_registry(self):
        """Two simulators on two threads: each tracer sees its solo counts.

        The kernel counters used to go through a process-global hook that
        every run installed and restored, so concurrent runs booked each
        other's work (and left a registry installed behind them).
        """
        import threading

        from repro.circuits.library import get_circuit
        from repro.core.simulator import QGpuSimulator
        from repro.obs import LogicalClock, Tracer
        from repro.statevector import kernels

        circuits = [get_circuit("qft", 18), get_circuit("hchain", 16)]

        def kernel_counts(tracer):
            return {
                name: value
                for name, value in tracer.counters.snapshot().items()
                if name.startswith(("kernels.", "kernel_amps.", "kernel_bytes."))
            }

        def traced_run(circuit, tracer, barrier=None):
            if barrier is not None:
                barrier.wait(timeout=30)
            QGpuSimulator(workers=1, tracer=tracer).run(circuit)

        solo = []
        for circuit in circuits:
            tracer = Tracer(clock=LogicalClock(), enabled=False)
            traced_run(circuit, tracer)
            solo.append(kernel_counts(tracer))
        assert solo[0]["kernels.dense"] != solo[1]["kernels.dense"]

        barrier = threading.Barrier(2)
        tracers = [Tracer(clock=LogicalClock(), enabled=False) for _ in circuits]
        threads = [
            threading.Thread(target=traced_run, args=(circuit, tracer, barrier))
            for circuit, tracer in zip(circuits, tracers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert [kernel_counts(tracer) for tracer in tracers] == solo
        # Nothing to leave installed: the module has no registry hook.
        assert not hasattr(kernels, "set_kernel_counters")
        assert not hasattr(kernels, "_kernel_counters")


class TestModelSide:
    def test_model_points_match_fig15_grid_order(self):
        from repro.core.versions import VERSIONS_BY_NAME
        from repro.experiments.fig15_roofline import (
            ROOFLINE_MACHINE,
            model_roofline_points,
        )
        from repro.hardware.specs import V100_16GB
        from repro.obs.roofline import RooflinePoint

        versions = (VERSIONS_BY_NAME["Q-GPU"],)
        points = model_roofline_points(
            ("qft", "bv"), (10,), versions,
            machine=ROOFLINE_MACHINE, gpu=V100_16GB,
        )
        assert [key[0] for key, _ in points] == ["qft", "bv"]
        assert all(isinstance(point, RooflinePoint) for _, point in points)

    def test_fig15_times_each_grid_cell_once_in_row_order(self, monkeypatch):
        from repro.experiments import fig15_roofline

        calls = []

        def fake_timed_run(family, size, version, machine):
            assert machine is fig15_roofline.ROOFLINE_MACHINE
            calls.append((family, size, version.name))
            return timing(flops=1e9, nbytes=1e9, seconds=1.0)

        monkeypatch.setattr(fig15_roofline, "timed_run", fake_timed_run)
        result = fig15_roofline.run()
        grid = [
            (family, size, version.name)
            for family in fig15_roofline.CIRCUITS
            for size in fig15_roofline.SIZES
            for version in fig15_roofline.VERSIONS
        ]
        assert calls == grid
        assert [row[0] for row in result.rows] == [f"{f}_{n}/{v}" for f, n, v in grid]

    def test_obs_imports_no_core_or_experiments_at_run_time(self):
        """No ``repro.obs`` module imports the core or experiment stack at run time."""
        import ast
        from pathlib import Path

        import repro.obs

        def runtime_imports(tree):
            for node in ast.walk(tree):
                if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
                    node.body = []
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.module:
                    yield node.module
                elif isinstance(node, ast.Import):
                    yield from (alias.name for alias in node.names)

        package = Path(repro.obs.__file__).parent
        offenders = {
            (path.name, module)
            for path in sorted(package.glob("*.py"))
            for module in runtime_imports(ast.parse(path.read_text()))
            if module.split(".")[:2] in (["repro", "core"], ["repro", "experiments"])
        }
        assert not offenders, sorted(offenders)
