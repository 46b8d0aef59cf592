"""Measured kernel rooflines: derivation, rendering, traced-run wiring."""

from __future__ import annotations

import pytest

from repro.obs.roofline import (
    KernelRoofline,
    kernel_rooflines,
    render_kernel_rooflines,
    rooflines_payload,
)

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
        from repro.analysis.roofline import RooflinePoint
        from repro.core.versions import VERSIONS_BY_NAME
        from repro.experiments.fig15_roofline import ROOFLINE_MACHINE
        from repro.hardware.specs import V100_16GB
        from repro.obs.roofline import model_roofline_points

        versions = (VERSIONS_BY_NAME["Q-GPU"],)
        points = model_roofline_points(
            ("qft", "bv"), (10,), versions,
            machine=ROOFLINE_MACHINE, gpu=V100_16GB,
        )
        assert [key[0] for key, _ in points] == ["qft", "bv"]
        assert all(isinstance(point, RooflinePoint) for _, point in points)
