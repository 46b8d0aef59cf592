"""Execution-time breakdowns (paper Figs. 2 and 4).

Splits a :class:`~repro.core.executor.TimedResult` into the categories the
paper plots: CPU compute, GPU compute, data movement (+synchronisation), and
codec time, as fractions of the total.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.executor import TimedResult


@dataclass(frozen=True)
class Breakdown:
    """Execution-time shares of one run.

    Attributes:
        circuit_name: Circuit the run executed.
        version: Version name.
        total_seconds: Modelled wall-clock.
        cpu: CPU-compute share of the total (0..1).
        gpu: GPU-kernel share.
        transfer: Data-movement (exposed) share.
        codec: GFC compress/decompress share.
    """

    circuit_name: str
    version: str
    total_seconds: float
    cpu: float
    gpu: float
    transfer: float
    codec: float


def breakdown(result: TimedResult) -> Breakdown:
    """Compute the category shares of a timed run."""
    shares = result.breakdown()
    return Breakdown(
        circuit_name=result.circuit_name,
        version=result.version,
        total_seconds=result.total_seconds,
        cpu=shares["cpu"],
        gpu=shares["gpu"],
        transfer=shares["transfer"],
        codec=shares["codec"],
    )


def average_breakdown(breakdowns: list[Breakdown]) -> dict[str, float]:
    """Arithmetic mean of each share across runs (the paper's 'on average')."""
    if not breakdowns:
        return {"cpu": 0.0, "gpu": 0.0, "transfer": 0.0, "codec": 0.0}
    count = len(breakdowns)
    return {
        "cpu": sum(b.cpu for b in breakdowns) / count,
        "gpu": sum(b.gpu for b in breakdowns) / count,
        "transfer": sum(b.transfer for b in breakdowns) / count,
        "codec": sum(b.codec for b in breakdowns) / count,
    }
