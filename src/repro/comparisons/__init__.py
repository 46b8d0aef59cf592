"""Cost models of the comparator simulators (CPU-OpenMP, Qsim-Cirq, QDK)."""

from repro.circuits.fusion import FusedBlock, fuse
from repro.comparisons.models import (
    QDK_SUPPORTED_FAMILIES,
    QSIM_SUPPORTED_FAMILIES,
    estimate_cpu_openmp,
    estimate_qdk,
    estimate_qsim_cirq,
)

__all__ = [
    "FusedBlock",
    "QDK_SUPPORTED_FAMILIES",
    "QSIM_SUPPORTED_FAMILIES",
    "estimate_cpu_openmp",
    "estimate_qdk",
    "estimate_qsim_cirq",
    "fuse",
]
