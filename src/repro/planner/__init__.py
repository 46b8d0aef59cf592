"""Adaptive backend planner: circuit-aware engine selection + precision.

Public surface:

* :func:`analyze_circuit` / :class:`CircuitFeatures` - static features.
* :func:`backend_cost` / :func:`all_backend_costs` / :class:`BackendCost`
  - calibrated per-backend pricing.
* :func:`plan` / :class:`PlannerConfig` / :class:`BackendPlan` - the
  decision itself.
* :func:`run_backend` / :class:`BackendExecution` - uniform execution of
  the non-dense backends.
* :func:`resolve_dtype` / :func:`norm_deviation` /
  :data:`DEFAULT_NORM_BOUND` - the complex64 fast path's guard.
"""

from repro.planner.costs import (
    BACKENDS,
    BackendCost,
    DENSE_QUBIT_LIMIT,
    all_backend_costs,
    backend_cost,
)
from repro.planner.engines import BackendExecution, run_backend
from repro.planner.features import CircuitFeatures, analyze_circuit
from repro.planner.plan import (
    AUTO_BACKENDS,
    BACKEND_CHOICES,
    BackendPlan,
    DEFAULT_CONFIG,
    PRECISION_CHOICES,
    PlannerConfig,
    SINGLE_PRECISION_GATE_LIMIT,
    plan,
)
from repro.planner.precision import (
    DEFAULT_NORM_BOUND,
    PRECISION_DTYPES,
    precision_of,
    resolve_dtype,
)
from repro.reliability.integrity import norm_deviation

__all__ = [
    "AUTO_BACKENDS",
    "BACKENDS",
    "BACKEND_CHOICES",
    "BackendCost",
    "BackendExecution",
    "BackendPlan",
    "CircuitFeatures",
    "DEFAULT_CONFIG",
    "DEFAULT_NORM_BOUND",
    "DENSE_QUBIT_LIMIT",
    "PRECISION_CHOICES",
    "PRECISION_DTYPES",
    "PlannerConfig",
    "SINGLE_PRECISION_GATE_LIMIT",
    "all_backend_costs",
    "analyze_circuit",
    "backend_cost",
    "norm_deviation",
    "plan",
    "precision_of",
    "resolve_dtype",
    "run_backend",
]
