"""An Auto-Tables-style multi-step relationalizer (Section 6.1.1).

Auto-Tables [Li et al., SIGMOD Rec. '24] synthesizes a *sequence* of
table-reshaping operators (transpose, melt/unpivot, pivot, ...) that turn
a non-relational table into relational form, without examples.  Like
Auto-Suggest it only reshapes structure; it never performs feature
engineering or cleaning, so the paper measures 0.0% improvement on the
evaluation corpora.

Here: a greedy depth-bounded search over the same operator set, guided by
a relationality score; on an already-relational table the empty program
wins and the script is returned unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..minipandas import DataFrame
from ..minipandas.ops import melt
from ..sandbox import run_script
from .base import Baseline
from .table_features import featurize_table

__all__ = ["AutoTables", "relationality_score", "synthesize_reshape_program"]

#: operator name -> (table transform, pandas source line)
_OPERATORS: dict = {
    "transpose": (lambda f: f.T, "df = df.T"),
    "melt": (lambda f: melt(f), "df = pd.melt(df)"),
}

_MAX_DEPTH = 3


def relationality_score(frame: DataFrame) -> float:
    """How relational does *frame* look?  Higher is better.

    Rewards entity-per-row shape (more rows than columns, header names
    that are labels rather than data values) and penalizes the wide
    matrix shapes Auto-Tables exists to fix.
    """
    features = featurize_table(frame)
    score = 0.0
    if not features.wide:
        score += 1.0
    score += 1.0 - features.yearlike_column_fraction
    score += 1.0 - features.numeric_name_fraction
    if features.n_rows >= features.n_cols:
        score += 1.0
    return score


def synthesize_reshape_program(
    frame: DataFrame, max_depth: int = _MAX_DEPTH
) -> List[str]:
    """Greedy multi-step reshape synthesis; [] when no step helps."""
    program: List[str] = []
    current = frame
    current_score = relationality_score(current)
    for _ in range(max_depth):
        best: Optional[Tuple[float, str, DataFrame]] = None
        for name, (transform, source) in _OPERATORS.items():
            try:
                candidate = transform(current)
            except Exception:
                continue
            score = relationality_score(candidate)
            if best is None or score > best[0]:
                best = (score, source, candidate)
        if best is None or best[0] <= current_score + 1e-9:
            break
        current_score, source, current = best
        program.append(source)
    return program


class AutoTables(Baseline):
    """Multi-step structural transformation appended to the script."""

    name = "Auto-Tables"

    def __init__(self, data_dir: Optional[str] = None):
        self.data_dir = data_dir

    def rewrite(self, script: str, corpus: Sequence[str]) -> str:
        frame = self._load_input_table(script)
        if frame is None:
            return script
        program = synthesize_reshape_program(frame)
        if not program:
            return script
        return script + "\n" + "\n".join(program)

    def _load_input_table(self, script: str) -> Optional[DataFrame]:
        lines = [
            line
            for line in script.splitlines()
            if line.strip().startswith(("import ", "from "))
            or "read_csv" in line
        ]
        if not lines:
            return None
        result = run_script("\n".join(lines), data_dir=self.data_dir, sample_rows=500)
        return result.output if result.ok else None
