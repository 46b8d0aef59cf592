"""Execution planning: pick the best engine/version for a workload.

A downstream user's first question is "how should I run this circuit on
this machine?".  The planner answers it by pricing the candidates:

* every Q-GPU version (plus the diagonal-aware and basis-tracking
  extensions) via the timed executor,
* the CPU-OpenMP path,
* and - for circuits the polynomial engines accept - flags when the
  stabilizer engine applies (Clifford circuits are free lunch).

Returns a ranked plan with modelled times, so callers can trade the
recommendation's assumptions explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.circuit import QuantumCircuit
from repro.comparisons.models import estimate_cpu_openmp
from repro.core.simulator import QGpuSimulator
from repro.core.versions import (
    ALL_VERSIONS,
    QGPU_BASIS_TRACKING,
    QGPU_DIAGONAL_AWARE,
)
from repro.errors import SimulationError
from repro.hardware.specs import MachineSpec, PAPER_MACHINE
from repro.stabilizer import is_clifford_circuit

@dataclass(frozen=True)
class PlanEntry:
    """One priced execution candidate."""

    label: str
    seconds: float
    kind: str  # "qgpu-version" | "cpu" | "note"


@dataclass(frozen=True)
class ExecutionPlan:
    """Ranked execution candidates for one circuit on one machine.

    Attributes:
        circuit_name: The workload.
        machine_name: The target machine.
        entries: Candidates sorted fastest first.
        clifford: Whether the polynomial stabilizer engine applies.
    """

    circuit_name: str
    machine_name: str
    entries: tuple[PlanEntry, ...]
    clifford: bool

    @property
    def best(self) -> PlanEntry:
        return self.entries[0]

    def speedup_over(self, label: str) -> float:
        """Best time vs a named candidate."""
        for entry in self.entries:
            if entry.label == label:
                return entry.seconds / self.best.seconds
        raise SimulationError(f"no candidate named {label!r} in the plan")

    def render(self) -> str:
        lines = [f"plan for {self.circuit_name} on {self.machine_name}:"]
        if self.clifford:
            lines.append(
                "  note: circuit is Clifford - the stabilizer engine "
                "simulates it in polynomial time/space"
            )
        for rank, entry in enumerate(self.entries, start=1):
            marker = "->" if rank == 1 else "  "
            lines.append(f"  {marker} {entry.label:<12} {entry.seconds:12.2f} s")
        return "\n".join(lines)


def plan_execution(
    circuit: QuantumCircuit,
    machine: MachineSpec = PAPER_MACHINE,
) -> ExecutionPlan:
    """Price all candidates and rank them.

    Raises:
        SimulationError: If no candidate fits the machine (state exceeds
            host memory for every engine).
    """
    entries: list[PlanEntry] = []
    for version in (*ALL_VERSIONS, QGPU_DIAGONAL_AWARE, QGPU_BASIS_TRACKING):
        try:
            timing = QGpuSimulator(machine=machine, version=version).estimate(circuit)
        except SimulationError:
            continue
        entries.append(PlanEntry(version.name, timing.total_seconds, "qgpu-version"))
    try:
        cpu = estimate_cpu_openmp(circuit, machine=machine)
        entries.append(PlanEntry("CPU-OpenMP", cpu.total_seconds, "cpu"))
    except SimulationError:
        pass
    if not entries:
        raise SimulationError(
            f"{circuit.name} fits no engine on {machine.name} "
            "(state exceeds host memory)"
        )
    entries.sort(key=lambda e: e.seconds)
    return ExecutionPlan(
        circuit_name=circuit.name,
        machine_name=machine.name,
        entries=tuple(entries),
        clifford=is_clifford_circuit(circuit),
    )
