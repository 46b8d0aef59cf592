"""Analysis utilities: breakdowns, rooflines, amplitude snapshots, tables."""

from repro.analysis.amplitudes import AmplitudeSnapshot, amplitude_snapshots
from repro.analysis.breakdown import Breakdown, average_breakdown, breakdown
from repro.analysis.roofline import RooflinePoint, roofline_ceiling, roofline_point
from repro.analysis.tables import format_table

__all__ = [
    "AmplitudeSnapshot",
    "Breakdown",
    "RooflinePoint",
    "amplitude_snapshots",
    "average_breakdown",
    "breakdown",
    "format_table",
    "roofline_ceiling",
    "roofline_point",
]
