"""Residual statistics of state amplitudes (paper Fig. 10).

The compressibility argument in Section IV-D rests on *spatial similarity*:
consecutive non-zero amplitudes in a state vector tend to have close values,
so the residuals from subtracting consecutive amplitudes concentrate near
zero.  These helpers compute exactly that distribution so the Fig. 10 bench
can contrast a compressible circuit (qaoa) with an incompressible one (iqp).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CompressionError


def consecutive_residuals(amplitudes: np.ndarray) -> np.ndarray:
    """Component-wise residuals between consecutive amplitudes.

    "Subtracting the consecutive state amplitudes" (paper Fig. 10) is a
    complex difference ``a[i] - a[i-1]``; the returned array interleaves its
    real and imaginary components, matching how GFC sees the stream (like
    components compared with like - real predicted from real, imaginary
    from imaginary).
    """
    doubles = np.ascontiguousarray(amplitudes)
    if doubles.dtype == np.complex128:
        doubles = doubles.view(np.float64)
    if doubles.dtype != np.float64:
        raise CompressionError(f"expected float64/complex128, got {doubles.dtype}")
    if doubles.size < 4:
        return np.zeros(0, dtype=np.float64)
    components = doubles.reshape(-1, 2)  # rows: (real, imag) per amplitude
    return np.diff(components, axis=0).ravel()


@dataclass(frozen=True)
class ResidualStats:
    """Summary of a residual distribution.

    Attributes:
        near_zero_fraction: Fraction of residuals with ``|r| < tolerance``.
        mean_abs: Mean absolute residual.
        p95_abs: 95th percentile of absolute residuals.
        tolerance: The near-zero threshold used.
    """

    near_zero_fraction: float
    mean_abs: float
    p95_abs: float
    tolerance: float


def residual_stats(amplitudes: np.ndarray, tolerance: float = 1e-6) -> ResidualStats:
    """Summarise the consecutive-residual distribution of a state vector."""
    residuals = np.abs(consecutive_residuals(amplitudes))
    if residuals.size == 0:
        return ResidualStats(1.0, 0.0, 0.0, tolerance)
    return ResidualStats(
        near_zero_fraction=float(np.mean(residuals < tolerance)),
        mean_abs=float(np.mean(residuals)),
        p95_abs=float(np.percentile(residuals, 95)),
        tolerance=tolerance,
    )

