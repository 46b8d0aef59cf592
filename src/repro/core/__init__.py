"""Q-GPU core: involvement, pruning, reordering, versions, executor, facade."""

from repro.core.basis_tracking import BasisTracker, QubitState
from repro.core.detailed import DetailedExecutor, DetailedRun
from repro.core.executor import (
    DEFAULT_CHUNK_BITS,
    GateTiming,
    TimedExecutor,
    TimedResult,
)
from repro.core.planner import ExecutionPlan, PlanEntry, plan_execution
from repro.core.involvement import (
    InvolvementTracker,
    involvement_trace,
    live_fraction_trace,
    qubit_mask,
)
from repro.core.multigpu import GroupAssignment, assign_round_robin, per_gpu_amplitudes
from repro.core.pruning import (
    chunk_is_pruned,
    iter_live_chunks,
    live_amplitude_count,
    live_chunk_count,
)
from repro.core.reorder import reorder, reorder_forward_looking, reorder_greedy
from repro.core.simulator import FunctionalResult, QGpuSimulator, circuit_family
from repro.core.versions import (
    ALL_VERSIONS,
    BASELINE,
    NAIVE,
    OVERLAP,
    PRUNING,
    QGPU,
    REORDER,
    VERSIONS_BY_NAME,
    VersionConfig,
)

__all__ = [
    "ALL_VERSIONS",
    "BASELINE",
    "BasisTracker",
    "QubitState",
    "DEFAULT_CHUNK_BITS",
    "DetailedExecutor",
    "DetailedRun",
    "ExecutionPlan",
    "FunctionalResult",
    "PlanEntry",
    "plan_execution",
    "GateTiming",
    "GroupAssignment",
    "InvolvementTracker",
    "NAIVE",
    "OVERLAP",
    "PRUNING",
    "QGPU",
    "QGpuSimulator",
    "REORDER",
    "TimedExecutor",
    "TimedResult",
    "VERSIONS_BY_NAME",
    "VersionConfig",
    "assign_round_robin",
    "chunk_is_pruned",
    "circuit_family",
    "involvement_trace",
    "iter_live_chunks",
    "live_amplitude_count",
    "live_chunk_count",
    "live_fraction_trace",
    "per_gpu_amplitudes",
    "qubit_mask",
    "reorder",
    "reorder_forward_looking",
    "reorder_greedy",
]
