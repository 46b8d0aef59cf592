"""Q-GPU core: liveness, reordering, versions, executor, facade."""

from repro.core.detailed import DetailedExecutor, DetailedRun
from repro.core.executor import (
    DEFAULT_CHUNK_BITS,
    GateTiming,
    TimedExecutor,
    TimedResult,
)
from repro.core.liveness import (
    LiveTracker,
    involvement_trace,
    live_fraction_trace,
    live_schedule,
)
from repro.core.multigpu import GroupAssignment, assign_round_robin, per_gpu_amplitudes
from repro.core.reorder import reorder, reorder_forward_looking, reorder_greedy
from repro.core.simulator import FunctionalResult, QGpuSimulator, circuit_family
from repro.core.versions import (
    ALL_VERSIONS,
    BASELINE,
    NAIVE,
    OVERLAP,
    PRUNING,
    QGPU,
    QGPU_BASIS_TRACKING,
    QGPU_DIAGONAL_AWARE,
    REORDER,
    VERSIONS_BY_NAME,
    VersionConfig,
)

__all__ = [
    "ALL_VERSIONS",
    "BASELINE",
    "DEFAULT_CHUNK_BITS",
    "DetailedExecutor",
    "DetailedRun",
    "FunctionalResult",
    "GateTiming",
    "GroupAssignment",
    "LiveTracker",
    "NAIVE",
    "OVERLAP",
    "PRUNING",
    "QGPU",
    "QGPU_BASIS_TRACKING",
    "QGPU_DIAGONAL_AWARE",
    "QGpuSimulator",
    "REORDER",
    "TimedExecutor",
    "TimedResult",
    "VERSIONS_BY_NAME",
    "VersionConfig",
    "assign_round_robin",
    "circuit_family",
    "involvement_trace",
    "live_fraction_trace",
    "live_schedule",
    "per_gpu_amplitudes",
    "reorder",
    "reorder_forward_looking",
    "reorder_greedy",
]
