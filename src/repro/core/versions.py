"""The six stacked execution versions evaluated in the paper (Section V).

Each version is a :class:`VersionConfig` switching on one more optimization
than the previous, exactly as the evaluation stacks them:

========== ========== ======= ======= ================ ===========
name       allocation overlap pruning reorder          compression
========== ========== ======= ======= ================ ===========
Baseline   static     -       -       original         -
Naive      dynamic    -       -       original         -
Overlap    dynamic    yes     -       original         -
Pruning    dynamic    yes     yes     original         -
Reorder    dynamic    yes     yes     forward-looking  -
Q-GPU      dynamic    yes     yes     forward-looking  yes
========== ========== ======= ======= ================ ===========
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError


@dataclass(frozen=True)
class VersionConfig:
    """Feature switches for one execution version.

    Attributes:
        name: Display name used in reports and figures.
        dynamic_allocation: ``False`` = the QISKit-Aer static chunk split
            with reactive exchange (Section III-B); ``True`` = chunks
            stream through the GPU.
        overlap: Double-buffered bidirectional streaming (Section IV-A).
            Requires ``dynamic_allocation``.
        pruning: Zero-amplitude chunk pruning via Algorithm 1 (Section IV-B).
        reorder_strategy: ``"original"``, ``"greedy"`` or
            ``"forward_looking"`` (Section IV-C).
        compression: GFC compression of streamed chunks (Section IV-D).
        diagonal_aware_pruning: Extension beyond the paper (ablation):
            diagonal gates cannot create new non-zero amplitudes, so they
            neither involve new qubits nor touch the uninvolved slices -
            a strictly tighter (still sound) version of Algorithm 1.
        basis_tracking_pruning: Extension beyond the paper (ablation): track
            three states per qubit (fixed-0 / fixed-1 / free) so basis
            permutations (X, fixed-control CX/CCX) and diagonal gates never
            inflate the live set (see :mod:`repro.core.basis_tracking`).
            Subsumes ``diagonal_aware_pruning``.
    """

    name: str
    dynamic_allocation: bool
    overlap: bool
    pruning: bool
    reorder_strategy: str = "original"
    compression: bool = False
    diagonal_aware_pruning: bool = False
    basis_tracking_pruning: bool = False

    def __post_init__(self) -> None:
        if self.overlap and not self.dynamic_allocation:
            raise SimulationError("overlap requires dynamic allocation")
        if self.reorder_strategy not in ("original", "greedy", "forward_looking"):
            raise SimulationError(
                f"unknown reorder strategy {self.reorder_strategy!r}"
            )


BASELINE = VersionConfig("Baseline", dynamic_allocation=False, overlap=False, pruning=False)
NAIVE = VersionConfig("Naive", dynamic_allocation=True, overlap=False, pruning=False)
OVERLAP = VersionConfig("Overlap", dynamic_allocation=True, overlap=True, pruning=False)
PRUNING = VersionConfig("Pruning", dynamic_allocation=True, overlap=True, pruning=True)
REORDER = VersionConfig(
    "Reorder", dynamic_allocation=True, overlap=True, pruning=True,
    reorder_strategy="forward_looking",
)
QGPU = VersionConfig(
    "Q-GPU", dynamic_allocation=True, overlap=True, pruning=True,
    reorder_strategy="forward_looking", compression=True,
)

#: The paper's six versions, in Fig. 12's stacking order.
ALL_VERSIONS: tuple[VersionConfig, ...] = (
    BASELINE, NAIVE, OVERLAP, PRUNING, REORDER, QGPU,
)

VERSIONS_BY_NAME: dict[str, VersionConfig] = {v.name: v for v in ALL_VERSIONS}
