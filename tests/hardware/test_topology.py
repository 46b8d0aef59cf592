"""Tests for interconnect topologies (hardware/topology.py)."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import HardwareModelError
from repro.hardware.specs import (
    MULTI_V100_MACHINE,
    PAPER_MACHINE,
    PCIE3_X16,
)
from repro.hardware.topology import (
    HOST,
    DeviceLink,
    Topology,
    default_topology,
    device_name,
    nvlink_mesh,
    pcie_switch,
)


class TestDeviceName:
    def test_flat(self) -> None:
        assert device_name(3) == "gpu3"


class TestDeviceLink:
    def test_connects_either_direction(self) -> None:
        link = DeviceLink("pcie/host-gpu0", "pcie", HOST, "gpu0", PCIE3_X16)
        assert link.connects(HOST, "gpu0")
        assert link.connects("gpu0", HOST)
        assert not link.connects("gpu0", "gpu1")

    def test_transfer_time_is_latency_plus_bandwidth(self) -> None:
        link = DeviceLink("pcie/host-gpu0", "pcie", HOST, "gpu0", PCIE3_X16)
        spec = PCIE3_X16
        expected = spec.latency + (1 << 20) / spec.bandwidth_per_direction
        assert link.transfer_time(1 << 20) == pytest.approx(expected)


class TestPcieSwitch:
    def test_star_shape(self) -> None:
        topo = pcie_switch(4)
        assert topo.num_devices == 4
        assert topo.devices == ("gpu0", "gpu1", "gpu2", "gpu3")
        # One host link per device, no peer links.
        assert len(topo.links) == 4
        assert topo.peer_links() == ()
        for dev in topo.devices:
            assert topo.host_link(dev).connects(HOST, dev)

    def test_link_ids_are_stable(self) -> None:
        topo = pcie_switch(2)
        assert sorted(link.link_id for link in topo.links) == [
            "pcie/host-gpu0",
            "pcie/host-gpu1",
        ]


class TestNvlinkMesh:
    def test_all_pairs_peer_links(self) -> None:
        topo = nvlink_mesh(4)
        # 4 host links + C(4,2) = 6 peer links.
        assert len(topo.links) == 10
        assert len(topo.peer_links()) == 6
        for a in topo.devices:
            incident = [
                link for link in topo.peer_links() if a in (link.src, link.dst)
            ]
            assert len(incident) == 3
        assert topo.link_between("gpu1", "gpu3") is not None

    def test_link_between_is_symmetric(self) -> None:
        topo = nvlink_mesh(3)
        assert topo.link_between("gpu0", "gpu2") is topo.link_between(
            "gpu2", "gpu0"
        )


BUILDERS = {"pcie_switch": pcie_switch, "nvlink_mesh": nvlink_mesh}


class TestBuilderInvariants:
    @pytest.mark.parametrize("num_gpus", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_every_device_reaches_the_host(self, builder: str, num_gpus: int) -> None:
        topo = BUILDERS[builder](num_gpus)
        assert topo.devices == tuple(device_name(i) for i in range(num_gpus))
        assert len({link.link_id for link in topo.links}) == len(topo.links)
        for dev in topo.devices:
            link = topo.host_link(dev)
            assert link.connects(HOST, dev)
            assert topo.link_between(dev, HOST) is link

    @pytest.mark.parametrize("num_gpus", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_peer_links_match_the_shape(self, builder: str, num_gpus: int) -> None:
        topo = BUILDERS[builder](num_gpus)
        pairs = [
            (a, b)
            for i, a in enumerate(topo.devices)
            for b in topo.devices[i + 1:]
        ]
        if builder == "pcie_switch":
            # Peer traffic relays through the host: no direct links.
            assert topo.peer_links() == ()
            assert all(topo.link_between(a, b) is None for a, b in pairs)
        else:
            assert len(topo.peer_links()) == len(pairs)
            for a, b in pairs:
                link = topo.link_between(a, b)
                assert link is not None
                assert topo.link_between(b, a) is link
        assert len(topo.links) == num_gpus + len(topo.peer_links())

    @pytest.mark.parametrize("num_gpus", [0, -1])
    @pytest.mark.parametrize("builder", sorted(BUILDERS))
    def test_no_gpus_rejected(self, builder: str, num_gpus: int) -> None:
        with pytest.raises(HardwareModelError):
            BUILDERS[builder](num_gpus)


class TestValidation:
    def test_duplicate_link_id_rejected(self) -> None:
        link = DeviceLink("dup", "pcie", HOST, "gpu0", PCIE3_X16)
        other = dataclasses.replace(link, dst="gpu1")
        with pytest.raises(HardwareModelError):
            Topology("bad", ("gpu0", "gpu1"), (link, other))

    def test_unknown_endpoint_rejected(self) -> None:
        link = DeviceLink("x", "pcie", HOST, "gpu9", PCIE3_X16)
        with pytest.raises(HardwareModelError):
            Topology("bad", ("gpu0",), (link,))

    def test_device_without_host_link_rejected(self) -> None:
        link = DeviceLink("x", "pcie", HOST, "gpu0", PCIE3_X16)
        with pytest.raises(HardwareModelError):
            Topology("bad", ("gpu0", "gpu1"), (link,))


class TestMachineSpecIntegration:
    def test_default_topology_matches_gpu_count(self) -> None:
        topo = default_topology(MULTI_V100_MACHINE)
        assert topo.num_devices == len(MULTI_V100_MACHINE.gpus)

    def test_default_topology_reuses_machine_link(self) -> None:
        # Timing must be unchanged: the host link of every device carries
        # the machine's own link spec.
        for spec in (PAPER_MACHINE, MULTI_V100_MACHINE):
            topo = default_topology(spec)
            for dev in topo.devices:
                assert topo.host_link(dev).spec is spec.link

    def test_nvlink_machines_get_a_mesh(self) -> None:
        assert "nvlink" in MULTI_V100_MACHINE.link.name.lower()
        topo = MULTI_V100_MACHINE.interconnect()
        assert topo.peer_links()

    def test_explicit_topology_wins(self) -> None:
        topo = pcie_switch(len(PAPER_MACHINE.gpus))
        spec = dataclasses.replace(PAPER_MACHINE, topology=topo)
        assert spec.interconnect() is topo

    def test_topology_device_count_mismatch_rejected(self) -> None:
        with pytest.raises(HardwareModelError):
            dataclasses.replace(PAPER_MACHINE, topology=pcie_switch(7))

    def test_with_gpu_count_drops_stale_topology(self) -> None:
        spec = dataclasses.replace(
            MULTI_V100_MACHINE, topology=nvlink_mesh(4)
        )
        scaled = spec.with_gpu_count(8)
        assert scaled.topology is None
        assert scaled.interconnect().num_devices == 8
