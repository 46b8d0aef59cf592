"""The six stacked execution versions evaluated in the paper (Section V).

Each version is a :class:`VersionConfig` switching on one more optimization
than the previous, exactly as the evaluation stacks them, plus the two
pruning extensions beyond the paper:

=========== ========== ======= =========== ================ ===========
name        allocation overlap pruning     reorder          compression
=========== ========== ======= =========== ================ ===========
Baseline    static     -       -           original         -
Naive       dynamic    -       -           original         -
Overlap     dynamic    yes     -           original         -
Pruning     dynamic    yes     involvement original         -
Reorder     dynamic    yes     involvement forward-looking  -
Q-GPU       dynamic    yes     involvement forward-looking  yes
Q-GPU+diag  dynamic    yes     diagonal    forward-looking  yes
Q-GPU+basis dynamic    yes     basis       forward-looking  yes
=========== ========== ======= =========== ================ ===========

The pruning column names a rule of :mod:`repro.core.liveness`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.liveness import RULES
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
        pruning: Zero-amplitude chunk pruning (Section IV-B): ``None``
            (off), ``"involvement"`` (Algorithm 1), or one of the
            extensions beyond the paper - ``"diagonal"`` (diagonal gates
            involve no qubit) or ``"basis"`` (fixed-0 / fixed-1 / free per
            qubit; subsumes ``"diagonal"``).  See :mod:`repro.core.liveness`.
        reorder_strategy: ``"original"``, ``"greedy"`` or
            ``"forward_looking"`` (Section IV-C).
        compression: GFC compression of streamed chunks (Section IV-D).
    """

    name: str
    dynamic_allocation: bool
    overlap: bool
    pruning: str | None = None
    reorder_strategy: str = "original"
    compression: bool = False

    def __post_init__(self) -> None:
        if self.overlap and not self.dynamic_allocation:
            raise SimulationError("overlap requires dynamic allocation")
        if self.pruning not in RULES:
            raise SimulationError(
                f"unknown pruning rule {self.pruning!r} (choose from {RULES})"
            )
        if self.reorder_strategy not in ("original", "greedy", "forward_looking"):
            raise SimulationError(
                f"unknown reorder strategy {self.reorder_strategy!r}"
            )


BASELINE = VersionConfig("Baseline", dynamic_allocation=False, overlap=False)
NAIVE = VersionConfig("Naive", dynamic_allocation=True, overlap=False)
OVERLAP = VersionConfig("Overlap", dynamic_allocation=True, overlap=True)
PRUNING = VersionConfig(
    "Pruning", dynamic_allocation=True, overlap=True, pruning="involvement"
)
REORDER = VersionConfig(
    "Reorder", dynamic_allocation=True, overlap=True, pruning="involvement",
    reorder_strategy="forward_looking",
)
QGPU = VersionConfig(
    "Q-GPU", dynamic_allocation=True, overlap=True, pruning="involvement",
    reorder_strategy="forward_looking", compression=True,
)
#: The diagonal-aware extension: Q-GPU with the ``"diagonal"`` rule.
QGPU_DIAGONAL_AWARE = VersionConfig(
    "Q-GPU+diag", dynamic_allocation=True, overlap=True, pruning="diagonal",
    reorder_strategy="forward_looking", compression=True,
)
#: The basis-tracking extension: Q-GPU with the ``"basis"`` rule.
QGPU_BASIS_TRACKING = VersionConfig(
    "Q-GPU+basis", dynamic_allocation=True, overlap=True, pruning="basis",
    reorder_strategy="forward_looking", compression=True,
)

#: The paper's six versions, in Fig. 12's stacking order.
ALL_VERSIONS: tuple[VersionConfig, ...] = (
    BASELINE, NAIVE, OVERLAP, PRUNING, REORDER, QGPU,
)

VERSIONS_BY_NAME: dict[str, VersionConfig] = {v.name: v for v in ALL_VERSIONS}
