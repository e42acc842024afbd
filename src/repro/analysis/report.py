"""Plain-text table rendering for benchmark output.

The benchmark harness prints the same rows the paper's tables report;
this module renders them readably in a terminal and in captured pytest
output.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:,.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 title: str = "") -> str:
    """Render an aligned ASCII table.

    Numbers are right-aligned, strings left-aligned; floats render with a
    magnitude-appropriate precision.
    """
    materialized = [list(row) for row in rows]
    str_rows = [[_cell(v) for v in row] for row in materialized]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, text in enumerate(row):
            widths[i] = max(widths[i], len(text))

    def fmt_row(texts: Sequence[str], original: Sequence[Any] | None) -> str:
        parts = []
        for i, text in enumerate(texts):
            source = original[i] if original is not None else text
            numeric = isinstance(source, (int, float)) and not isinstance(source, bool)
            parts.append(text.rjust(widths[i]) if numeric else text.ljust(widths[i]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row(list(headers), None))
    lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for original, row in zip(materialized, str_rows):
        lines.append(fmt_row(row, original))
    return "\n".join(lines)
