"""Tests for hardware specs and the Machine cost helpers."""

from __future__ import annotations

import pytest

from repro.errors import HardwareModelError
from repro.hardware.machine import GPU_USABLE_FRACTION, Machine
from repro.hardware.specs import (
    A100_MACHINE,
    AMP_BYTES,
    CpuSpec,
    GpuSpec,
    LinkSpec,
    MACHINES,
    MULTI_P4_MACHINE,
    MULTI_V100_MACHINE,
    MachineSpec,
    P100,
    PAPER_MACHINE,
    PCIE3_X16,
    V100_MACHINE,
)


class TestPresets:
    def test_all_machines_registered(self) -> None:
        assert set(MACHINES) == {"p100", "v100", "a100", "multi_p4", "multi_v100"}

    def test_paper_machine_matches_section_3b(self) -> None:
        assert PAPER_MACHINE.gpu.memory_bytes == 16 * 2**30
        assert PAPER_MACHINE.host_memory_bytes == 384 * 2**30
        assert PAPER_MACHINE.cpu.cores == 20
        assert len(PAPER_MACHINE.gpus) == 1

    def test_multi_gpu_servers_have_four_gpus(self) -> None:
        assert len(MULTI_P4_MACHINE.gpus) == 4
        assert len(MULTI_V100_MACHINE.gpus) == 4
        assert MULTI_V100_MACHINE.link.name.startswith("NVLink")

    def test_v100_and_a100_hosts_are_small(self) -> None:
        # Section V-D: 80 GB and 85 GB hosts cannot hold >= 33-qubit states.
        state_33 = AMP_BYTES << 33
        assert V100_MACHINE.host_memory_bytes < state_33
        assert A100_MACHINE.host_memory_bytes < state_33

    def test_gpu_effective_bandwidth(self) -> None:
        assert P100.effective_bandwidth == P100.mem_bandwidth * P100.kernel_efficiency

    def test_with_gpu_count(self) -> None:
        doubled = PAPER_MACHINE.with_gpu_count(2)
        assert len(doubled.gpus) == 2
        with pytest.raises(HardwareModelError):
            PAPER_MACHINE.with_gpu_count(0)


class TestValidation:
    def test_bad_gpu_spec(self) -> None:
        with pytest.raises(HardwareModelError):
            GpuSpec("bad", memory_bytes=0, fp64_flops=1, mem_bandwidth=1)
        with pytest.raises(HardwareModelError):
            GpuSpec("bad", memory_bytes=1, fp64_flops=1, mem_bandwidth=1,
                    kernel_efficiency=1.5)

    def test_bad_cpu_spec(self) -> None:
        with pytest.raises(HardwareModelError):
            CpuSpec("bad", cores=0, effective_bandwidth=1)
        with pytest.raises(HardwareModelError):
            CpuSpec("bad", cores=1, effective_bandwidth=1, chunked_efficiency=0)

    def test_bad_link_spec(self) -> None:
        with pytest.raises(HardwareModelError):
            LinkSpec("bad", bandwidth_per_direction=0)

    def test_machine_needs_gpus_and_memory(self) -> None:
        with pytest.raises(HardwareModelError):
            MachineSpec("bad", cpu=PAPER_MACHINE.cpu, gpus=(),
                        link=PCIE3_X16, host_memory_bytes=1)
        with pytest.raises(HardwareModelError):
            MachineSpec("bad", cpu=PAPER_MACHINE.cpu, gpus=(P100,),
                        link=PCIE3_X16, host_memory_bytes=0)


class TestMachineCosts:
    @pytest.fixture
    def machine(self) -> Machine:
        return Machine(PAPER_MACHINE)

    def test_transfer_time_linear_in_bytes(self, machine: Machine) -> None:
        one = machine.transfer_time(12 * 10**9, num_transfers=0)
        assert one == pytest.approx(1.0)
        assert machine.transfer_time(0) == 0.0

    def test_transfer_latency_added_per_transfer(self, machine: Machine) -> None:
        base = machine.transfer_time(10**9, num_transfers=0)
        with_latency = machine.transfer_time(10**9, num_transfers=100)
        assert with_latency == pytest.approx(base + 100 * PCIE3_X16.latency)

    def test_negative_transfer_rejected(self, machine: Machine) -> None:
        with pytest.raises(HardwareModelError):
            machine.transfer_time(-1)

    def test_gpu_compute_memory_bound(self, machine: Machine) -> None:
        amps = 1 << 30
        expected = 2 * AMP_BYTES * amps / P100.effective_bandwidth
        assert machine.gpu_compute_time(amps) == pytest.approx(expected)

    def test_diagonal_gate_fewer_flops_same_traffic(self, machine: Machine) -> None:
        amps = 1 << 20
        dense = machine.gate_flops(amps, 1, diagonal=False)
        diag = machine.gate_flops(amps, 1, diagonal=True)
        assert diag < dense
        # Both are memory-bound, so the time is identical.
        assert machine.gpu_compute_time(amps, 1, True) == pytest.approx(
            machine.gpu_compute_time(amps, 1, False)
        )

    def test_three_qubit_gate_flops(self, machine: Machine) -> None:
        assert machine.gate_flops(100, 3, False) == pytest.approx(6400)
        assert machine.gate_flops(100, 4, False) == pytest.approx(100 * 8 * 16)

    def test_cpu_chunked_slower_than_openmp(self, machine: Machine) -> None:
        amps = 1 << 28
        assert machine.cpu_compute_time(amps, chunked=True) > machine.cpu_compute_time(
            amps, chunked=False
        )

    def test_capacity_accounts_for_usable_fraction(self, machine: Machine) -> None:
        assert machine.gpu_capacity_bytes() == int(
            P100.memory_bytes * GPU_USABLE_FRACTION
        )

    def test_host_capacity_includes_slack(self, machine: Machine) -> None:
        assert machine.fits_in_host(AMP_BYTES << 34)  # 256 GiB in 384 GiB
        assert not machine.fits_in_host(AMP_BYTES << 35)

    def test_multi_gpu_total_capacity(self) -> None:
        machine = Machine(MULTI_P4_MACHINE)
        assert machine.total_gpu_capacity_bytes() == 4 * machine.gpu_capacity_bytes()

    def test_codec_time(self, machine: Machine) -> None:
        assert machine.codec_time(P100.codec_bandwidth) == pytest.approx(1.0)
