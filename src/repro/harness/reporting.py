"""Plain-text rendering of the paper's tables and figure series."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "render_table",
    "render_histogram",
    "render_series",
]


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str = ""
) -> str:
    """Render rows as an aligned monospace table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells[1:]:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_histogram(
    values: Sequence[float],
    bins: Sequence[float],
    title: str = "",
    width: int = 40,
) -> str:
    """ASCII histogram of a % improvement distribution (Figure 4 style)."""
    counts, edges = np.histogram(list(values), bins=list(bins))
    peak = max(int(counts.max()), 1)
    lines = [title] if title else []
    for count, lo, hi in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(width * count / peak))
        lines.append(f"[{lo:7.1f}, {hi:7.1f})  {bar} {count}")
    return "\n".join(lines)


def render_series(
    points: Sequence[Tuple[float, float]],
    x_label: str,
    y_label: str,
    title: str = "",
) -> str:
    """Render an (x, y) sweep as a two-column listing (Figures 5, 6, 9)."""
    lines = [title] if title else []
    lines.append(f"{x_label:>12}  {y_label}")
    for x, y in points:
        lines.append(f"{x:>12}  {y:.1f}")
    return "\n".join(lines)
