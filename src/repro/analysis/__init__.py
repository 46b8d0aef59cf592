"""Analysis utilities: breakdowns, amplitude snapshots, tables.

Rooflines live in :mod:`repro.obs.roofline`.
"""

from repro.analysis.amplitudes import AmplitudeSnapshot, amplitude_snapshots
from repro.analysis.breakdown import Breakdown, average_breakdown, breakdown
from repro.analysis.tables import format_table

__all__ = [
    "AmplitudeSnapshot",
    "Breakdown",
    "amplitude_snapshots",
    "average_breakdown",
    "breakdown",
    "format_table",
]
