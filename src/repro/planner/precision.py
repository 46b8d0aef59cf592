"""Adaptive precision: the complex64 fast path and its norm guard.

The dense chunked engine can run in complex64 - half the memory traffic,
which is most of the runtime for the bandwidth-bound kernels - but
single-precision rounding accumulates with circuit depth.  The guard is
the same invariant the reliability layer already checks: a unitary
circuit conserves the 2-norm, so after a single-precision run the
deviation ``|1 - sum |amp|^2|`` (accumulated in float64 by
:func:`repro.reliability.integrity.norm_deviation`) bounds how much
rounding the run picked up.  If it exceeds the documented bound the
simulator deterministically re-runs in complex128 - same circuit, same
seed, no partial reuse - and counts ``planner.fallbacks``.

The norm deviation is a *proxy* bound, not a rigorous amplitude-wise
error bound: a norm-preserving rotation of the error is invisible to it.
Empirically (see ``docs/planner.md``) deviation and max amplitude error
track each other within ~two orders of magnitude on the paper's
families, which is why the default bound is set three orders below
nothing-to-worry-about rather than at the edge.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AnalysisError

#: Norm-deviation ceiling for accepting a complex64 run.  complex64 has
#: ~7.2 significant digits; thousands of accumulated gate applications
#: typically land the deviation around 1e-6..1e-5, so 1e-4 flags only
#: genuinely degraded runs while never triggering on healthy ones.
DEFAULT_NORM_BOUND = 1e-4

#: Precision name -> numpy complex dtype.
PRECISION_DTYPES: dict[str, type] = {
    "single": np.complex64,
    "double": np.complex128,
}


def resolve_dtype(precision: str) -> type:
    """Map a resolved precision name to its numpy dtype.

    Raises:
        AnalysisError: On anything but ``"single"`` / ``"double"``
            (``"auto"`` must be resolved by the planner first).
    """
    try:
        return PRECISION_DTYPES[precision]
    except KeyError:
        raise AnalysisError(
            f"unknown precision {precision!r} "
            f"(choose from {sorted(PRECISION_DTYPES)})"
        ) from None


def precision_of(dtype: object) -> str:
    """Inverse of :func:`resolve_dtype` for the two supported dtypes."""
    kind = np.dtype(dtype)
    if kind == np.complex64:
        return "single"
    if kind == np.complex128:
        return "double"
    raise AnalysisError(f"unsupported state dtype {kind}")
