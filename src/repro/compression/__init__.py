"""GFC lossless amplitude compression and compressibility analysis."""

from repro.compression.gfc import compress, compression_ratio, decompress
from repro.compression.profile import (
    CompressionProfile,
    family_ratio,
    get_profile,
    measure_profile,
)
from repro.compression.residual import (
    ResidualStats,
    consecutive_residuals,
    residual_stats,
)

__all__ = [
    "CompressionProfile",
    "ResidualStats",
    "compress",
    "compression_ratio",
    "consecutive_residuals",
    "decompress",
    "family_ratio",
    "get_profile",
    "measure_profile",
    "residual_stats",
]
