"""Plain-text reporting of experiment results.

``repro-run <figure>`` prints the same rows the paper plots, so the
reproduction can be compared against the published figures at a glance.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render rows as an aligned, pipe-separated text table."""
    materialised: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
    lines = [
        " | ".join(str(header).ljust(widths[index]) for index, header in enumerate(headers)),
        "-+-".join("-" * width for width in widths),
    ]
    for row in materialised:
        lines.append(
            " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
        )
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100 or abs(cell) < 0.0001:
            return f"{cell:.3g}"
        return f"{cell:.4f}"
    return str(cell)
