"""Plain-text table rendering for experiment reports.

The benchmark harness prints each paper table/figure as an aligned ASCII
table; this keeps the experiment output diffable and dependency-free.
"""

from __future__ import annotations

from typing import Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render ``rows`` under ``headers`` as an aligned monospace table.

    Floats render with four significant digits; everything else with
    ``str``.  Columns are right-aligned except the first.
    """
    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.4g}"
        return str(value)

    text_rows = [[cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for column, value in enumerate(row):
            widths[column] = max(widths[column], len(value))

    def line(cells: Sequence[str]) -> str:
        parts = []
        for column, value in enumerate(cells):
            if column == 0:
                parts.append(value.ljust(widths[column]))
            else:
                parts.append(value.rjust(widths[column]))
        return "  ".join(parts)

    out = []
    if title:
        out.append(title)
    out.append(line(list(headers)))
    out.append("  ".join("-" * w for w in widths))
    out.extend(line(row) for row in text_rows)
    return "\n".join(out)

