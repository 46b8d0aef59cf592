"""Fig. 15 - roofline analysis of qft and iqp on a V100.

Paper findings: QCS is memory-bound (all points under the bandwidth slope);
runs fitting GPU memory (<= 29 qubits) sit near the ceiling; past 31 qubits
the Baseline collapses to very low FLOPS, Naive recovers some throughput at
lower arithmetic intensity, and Q-GPU achieves far more than either.
"""

from __future__ import annotations

from repro.core.versions import BASELINE, NAIVE, QGPU, VersionConfig
from repro.experiments.base import ExperimentResult, register
from repro.experiments.common import timed_run
from repro.hardware.specs import (
    GpuSpec, MachineSpec, PCIE3_X16, V100_16GB, XEON_4114_DUAL,
)
from repro.obs.roofline import RooflinePoint, roofline_point

#: The paper's roofline server: V100 16 GB with a capable host.
ROOFLINE_MACHINE = MachineSpec(
    "V100 roofline server (Sec. V-B)", cpu=XEON_4114_DUAL, gpus=(V100_16GB,),
    link=PCIE3_X16, host_memory_bytes=384 * 2**30,
)

CIRCUITS = ("qft", "iqp")
SIZES = (27, 29, 31, 33)
VERSIONS = (BASELINE, NAIVE, QGPU)


def model_roofline_points(
    circuits: tuple[str, ...],
    sizes: tuple[int, ...],
    versions: tuple[VersionConfig, ...],
    machine: MachineSpec,
    gpu: GpuSpec,
) -> list[tuple[tuple[str, int, str], RooflinePoint]]:
    """The Fig. 15 sweep: one modelled roofline point per grid cell.

    Returns ``((family, size, version.name), RooflinePoint)`` tuples in
    family-major, then size, then version order - the order the rows
    are printed in.
    """
    points = []
    for family in circuits:
        for size in sizes:
            for version in versions:
                timing = timed_run(family, size, version, machine=machine)
                points.append(((family, size, version.name), roofline_point(timing, gpu)))
    return points


@register("fig15")
def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig15",
        title="Roofline points on V100 (GFLOPS vs arithmetic intensity)",
        headers=["point", "AI_flops_per_byte", "achieved_GFLOPS",
                 "ceiling_GFLOPS", "pct_of_ceiling"],
    )
    points: dict[tuple[str, int, str], RooflinePoint] = {}
    for (family, size, version_name), point in model_roofline_points(
        CIRCUITS, SIZES, VERSIONS, machine=ROOFLINE_MACHINE, gpu=V100_16GB
    ):
        points[(family, size, version_name)] = point
        result.rows.append(
            [
                f"{family}_{size}/{version_name}",
                point.arithmetic_intensity,
                point.achieved_flops / 1e9,
                point.ceiling_flops / 1e9,
                100 * point.efficiency,
            ]
        )
    result.data["points"] = points
    result.notes.append(
        "paper: all points memory-bound; baseline collapses past 31 qubits"
    )
    return result
