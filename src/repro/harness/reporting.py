"""Plain-text rendering of the paper's tables and figure series."""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "render_table",
    "render_histogram",
    "render_series",
    "step_prevalence_matrix",
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


def step_prevalence_matrix(
    scripts: Sequence[str],
    user_script: str = None,
    max_steps: int = 15,
) -> str:
    """Render a Table 1-style matrix: steps × scripts with check marks.

    Rows are the most prevalent lemmatized statements in *scripts* (plus
    any statement of *user_script*); columns are s_u (when given) and
    s_1..s_n.  This is the prevalence summary the paper's user-study
    participants were shown.
    """
    from ..lang import CorpusVocabulary, ScriptError, lemmatize

    vocabulary = CorpusVocabulary.from_scripts(scripts)
    lemmatized = []
    for script in scripts:
        try:
            lemmatized.append(set(lemmatize(script).splitlines()))
        except ScriptError:
            lemmatized.append(set())

    steps = [sig for sig, _ in vocabulary.ngram_counts.most_common(max_steps)]
    user_lines = set()
    if user_script is not None:
        user_lines = set(lemmatize(user_script).splitlines())
        for line in user_lines:
            if line not in steps:
                steps.append(line)

    headers = ["Data preparation step"]
    if user_script is not None:
        headers.append("s_u")
    headers.extend(f"s_{i + 1}" for i in range(len(scripts)))

    rows = []
    for step in steps:
        row = [step]
        if user_script is not None:
            row.append("x" if step in user_lines else "")
        row.extend("x" if step in lines else "" for lines in lemmatized)
        rows.append(row)
    return render_table(headers, rows)


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
