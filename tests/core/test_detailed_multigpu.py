"""Tests for the multi-device DES executor (fleet trace lanes + transfers)."""

from __future__ import annotations

import pytest

from repro.circuits.library import get_circuit
from repro.core.detailed import DetailedExecutor
from repro.core.versions import NAIVE, OVERLAP
from repro.hardware.machine import Machine
from repro.hardware.specs import MULTI_V100_MACHINE, PAPER_MACHINE
from repro.hardware.topology import HOST

TOY_CAPACITY = 1 << 22
CHUNK_BITS = 14
NUM_QUBITS = 20


def _run(devices: int, version=OVERLAP, machine=MULTI_V100_MACHINE):
    executor = DetailedExecutor(
        Machine(machine),
        chunk_bits=CHUNK_BITS,
        capacity_bytes=TOY_CAPACITY,
        devices=devices,
    )
    return executor.execute(get_circuit("qft", NUM_QUBITS), version)


class TestDeviceLanes:
    def test_default_device_count_follows_machine(self) -> None:
        executor = DetailedExecutor(
            Machine(MULTI_V100_MACHINE),
            chunk_bits=CHUNK_BITS,
            capacity_bytes=TOY_CAPACITY,
        )
        run = executor.execute(get_circuit("qft", NUM_QUBITS), OVERLAP)
        assert run.devices == len(MULTI_V100_MACHINE.gpus)

    def test_namespaced_resources_per_device(self) -> None:
        run = _run(4)
        resources = {r.task.resource for r in run.timeline.records.values()}
        for d in range(4):
            for engine in ("h2d", "gpu", "d2h"):
                assert f"gpu{d}:{engine}" in resources

    def test_single_device_keeps_legacy_lanes(self) -> None:
        # devices=1 must be indistinguishable from the pre-fleet executor:
        # unqualified engine resources, no transfer matrix beyond host<->gpu0.
        run = _run(1, machine=PAPER_MACHINE)
        resources = {r.task.resource for r in run.timeline.records.values()}
        assert {"h2d", "gpu", "d2h"} <= resources
        assert not any(":" in r for r in resources)

    def test_single_device_makespan_unchanged(self) -> None:
        # The multi-device rewrite must not perturb single-GPU timing.
        legacy = DetailedExecutor(
            Machine(PAPER_MACHINE),
            chunk_bits=CHUNK_BITS,
            capacity_bytes=TOY_CAPACITY,
        )
        run_a = legacy.execute(get_circuit("qft", NUM_QUBITS), NAIVE)
        run_b = _run(1, version=NAIVE, machine=PAPER_MACHINE)
        assert run_a.makespan == pytest.approx(run_b.makespan, rel=1e-12)


class TestTransferAccounting:
    def test_transfers_balance_in_and_out(self) -> None:
        # Uncompressed streaming moves every byte in and back out.
        run = _run(4, version=OVERLAP)
        assert run.bytes_h2d == run.bytes_d2h
        assert run.bytes_h2d > 0

    def test_comm_matrix_routes_everything_through_host(self) -> None:
        # Fig. 18 discipline: no GPU-to-GPU traffic, all via host memory.
        run = _run(4)
        for (src, dst), moved in run.transfers.items():
            assert HOST in (src, dst)
            assert moved > 0
        matrix = run.comm_matrix()
        total = sum(v for row in matrix.values() for v in row.values())
        assert total == run.bytes_h2d + run.bytes_d2h

    def test_link_bytes_cover_all_transfers(self) -> None:
        run = _run(4)
        assert sum(run.link_bytes.values()) == run.bytes_h2d + run.bytes_d2h
        assert all(lid for lid in run.link_bytes)

    def test_work_spreads_across_devices(self) -> None:
        run = _run(4)
        inbound = {
            dst: moved
            for (src, dst), moved in run.transfers.items()
            if src == HOST
        }
        assert len(inbound) == 4
        # Round-robin keeps the spread tight: no device gets more than
        # twice the smallest share.
        assert max(inbound.values()) <= 2 * min(inbound.values())

    def test_task_meta_bytes_sum_to_totals(self) -> None:
        # Every in/out task carries its transfer in meta["bytes"]; summing
        # them reproduces the run-level accounting exactly.
        run = _run(2)
        by_direction = {"in": 0.0, "out": 0.0}
        for record in run.timeline.records.values():
            meta = record.task.meta or {}
            if "bytes" not in meta:
                continue
            if meta["src"] == HOST:
                by_direction["in"] += meta["bytes"]
            else:
                by_direction["out"] += meta["bytes"]
        assert by_direction["in"] == run.bytes_h2d
        assert by_direction["out"] == run.bytes_d2h


class TestScalingBehaviour:
    @pytest.mark.parametrize("devices", [2, 4])
    def test_more_devices_never_slower(self, devices: int) -> None:
        single = _run(1)
        multi = _run(devices)
        assert multi.makespan <= single.makespan * 1.0001

    def test_device_count_recorded(self) -> None:
        assert _run(2).devices == 2
