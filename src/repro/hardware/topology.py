"""Interconnect topology: named links between hosts and devices.

The rest of :mod:`repro.hardware` models a machine's interconnect as *one*
:class:`~repro.hardware.specs.LinkSpec` shared by every GPU.  That is enough
to price transfers, but the fleet observatory (``obs.fleet``) needs to know
*which* link carried each byte: per-link utilization timelines and the
device-to-device communication matrix are meaningless without an explicit
link inventory.  This module provides it:

* :class:`DeviceLink` - one named, directed-pair link between two endpoints
  (``host`` or ``gpu{i}``), carrying a
  :class:`~repro.hardware.specs.LinkSpec` for bandwidth/latency;
* :class:`Topology` - a validated set of endpoints and links with lookup
  helpers (:meth:`Topology.host_link`, :meth:`Topology.link_between`);
* builders for the two shapes the paper's servers use: :func:`pcie_switch`
  (every GPU behind its own PCIe root port - the P100/P4 servers) and
  :func:`nvlink_mesh` (host links plus all-pairs peer links - the 4x V100
  NVLink server).

:meth:`~repro.hardware.specs.MachineSpec.interconnect` derives the default
topology from a machine's existing specs, so every preset gains a link
inventory without changing any timing figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HardwareModelError
from repro.hardware.specs import LinkSpec, MachineSpec, NVLINK2, PCIE3_X16

#: The canonical host endpoint name.
HOST = "host"


def device_name(index: int) -> str:
    """Canonical device endpoint name (``gpu3``)."""
    return f"gpu{index}"


@dataclass(frozen=True)
class DeviceLink:
    """One link between two endpoints of a topology.

    Attributes:
        link_id: Unique identifier within the topology (stable across
            runs; trace spans and the fleet report key on it).
        kind: Link family - ``"pcie"`` or ``"nvlink"``.
        src: One endpoint (a host or device name).
        dst: The other endpoint.
        spec: Bandwidth/latency/duplex figures.  Links are modelled as
            symmetric pipes: ``src``/``dst`` name the endpoints, not a
            transfer direction.
    """

    link_id: str
    kind: str
    src: str
    dst: str
    spec: LinkSpec

    def __post_init__(self) -> None:
        if not self.link_id:
            raise HardwareModelError("link needs a non-empty id")
        if self.src == self.dst:
            raise HardwareModelError(
                f"link {self.link_id!r} connects {self.src!r} to itself"
            )

    def connects(self, a: str, b: str) -> bool:
        """Whether this link joins endpoints ``a`` and ``b`` (either order)."""
        return (self.src, self.dst) in ((a, b), (b, a))

    def transfer_time(self, num_bytes: float) -> float:
        """Seconds to move ``num_bytes`` over this link (one transfer)."""
        return num_bytes / self.spec.bandwidth_per_direction + self.spec.latency


@dataclass(frozen=True)
class Topology:
    """A validated interconnect: the host, devices, and the links between them.

    Attributes:
        name: Identifier used in reports.
        devices: Device endpoint names, in stream order.
        links: Every link in the fabric.
    """

    name: str
    devices: tuple[str, ...]
    links: tuple[DeviceLink, ...]

    def __post_init__(self) -> None:
        if not self.devices:
            raise HardwareModelError(f"topology {self.name!r} has no devices")
        endpoints = {HOST, *self.devices}
        if len(endpoints) < 1 + len(self.devices):
            raise HardwareModelError(
                f"topology {self.name!r} has duplicate endpoint names"
            )
        seen_ids: set[str] = set()
        for link in self.links:
            if link.link_id in seen_ids:
                raise HardwareModelError(
                    f"topology {self.name!r}: duplicate link id {link.link_id!r}"
                )
            seen_ids.add(link.link_id)
            for endpoint in (link.src, link.dst):
                if endpoint not in endpoints:
                    raise HardwareModelError(
                        f"topology {self.name!r}: link {link.link_id!r} "
                        f"references unknown endpoint {endpoint!r}"
                    )
        for device in self.devices:
            if self.link_between(HOST, device) is None:
                raise HardwareModelError(
                    f"topology {self.name!r}: device {device!r} has no host link"
                )

    @property
    def num_devices(self) -> int:
        return len(self.devices)

    def host_link(self, device: str) -> DeviceLink:
        """The link joining ``device`` to the host.

        Raises:
            HardwareModelError: Unknown device (validation guarantees every
                known device has one).
        """
        link = self.link_between(HOST, device)
        if link is None:
            raise HardwareModelError(
                f"topology {self.name!r}: no host link for {device!r}"
            )
        return link

    def link_between(self, a: str, b: str) -> DeviceLink | None:
        """The direct link joining endpoints ``a`` and ``b``, if any."""
        for link in self.links:
            if link.connects(a, b):
                return link
        return None

    def peer_links(self) -> tuple[DeviceLink, ...]:
        """Links joining two devices (no host endpoint)."""
        return tuple(link for link in self.links if HOST not in (link.src, link.dst))


# -- builders ------------------------------------------------------------------


def pcie_switch(num_gpus: int, link: LinkSpec = PCIE3_X16) -> Topology:
    """Every GPU behind its own PCIe lane set - the P100/P4 servers.

    No peer links: any GPU-to-GPU movement relays through host memory,
    which is exactly the paper's Fig. 18 discipline.
    """
    if num_gpus < 1:
        raise HardwareModelError("need at least one GPU")
    devices = tuple(device_name(i) for i in range(num_gpus))
    links = tuple(
        DeviceLink(f"pcie/host-{dev}", "pcie", HOST, dev, link)
        for dev in devices
    )
    return Topology(f"pcie-switch-{num_gpus}", devices, links)


def nvlink_mesh(
    num_gpus: int,
    host_link: LinkSpec = NVLINK2,
    peer_link: LinkSpec = NVLINK2,
) -> Topology:
    """Host links plus an all-pairs peer mesh - the 4x V100 NVLink server.

    The streaming discipline never uses the peer links (chunk groups are
    self-contained), but the inventory exposes them so the fleet analytics
    can report them at zero utilization - the measurable form of the
    paper's "no GPU-to-GPU traffic" claim.
    """
    if num_gpus < 1:
        raise HardwareModelError("need at least one GPU")
    devices = tuple(device_name(i) for i in range(num_gpus))
    links = [
        DeviceLink(f"nvlink/host-{dev}", "nvlink", HOST, dev, host_link)
        for dev in devices
    ]
    for i in range(num_gpus):
        for j in range(i + 1, num_gpus):
            links.append(
                DeviceLink(
                    f"nvlink/{devices[i]}-{devices[j]}",
                    "nvlink",
                    devices[i],
                    devices[j],
                    peer_link,
                )
            )
    return Topology(f"nvlink-mesh-{num_gpus}", devices, tuple(links))


def default_topology(spec: MachineSpec) -> Topology:
    """The topology a machine's existing specs imply.

    NVLink-attached machines get the all-pairs mesh; everything else a
    PCIe switch.  Host-link figures come straight from ``spec.link``, so
    transfer pricing is unchanged - the topology only *names* the links
    the timing model already assumed.
    """
    num_gpus = len(spec.gpus)
    if "nvlink" in spec.link.name.lower():
        return nvlink_mesh(num_gpus, host_link=spec.link)
    return pcie_switch(num_gpus, link=spec.link)
