"""Report renderings: plain-text tables and the one JSON form."""

from __future__ import annotations

import json
from typing import Any, Iterable, List, Sequence


def to_json(document: Any) -> str:
    """``document`` as JSON, indented by 2 with sorted keys: the one form
    every report is printed and written in, byte-identical for equal
    documents."""
    return json.dumps(document, indent=2, sort_keys=True)


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Render an ASCII table with a separator under the header row.

    Every cell is converted with ``str``; columns are sized to the widest
    cell. Used by the benchmark harness to print the paper's tables next to
    the measured values.
    """
    materialized: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row}"
            )
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def fmt(row: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(headers))
    lines.append("-+-".join("-" * width for width in widths))
    lines.extend(fmt(row) for row in materialized)
    return "\n".join(lines)
