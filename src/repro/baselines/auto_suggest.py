"""An Auto-Suggest-style single-step recommender (Section 6.1.1).

Auto-Suggest [Yan & He, SIGMOD'20] learns to recommend the *next* data
preparation operator for an input table from table characteristics.  Its
operator catalogue is table-structural (pivot, unpivot/melt, transpose,
...), so on corpora dominated by feature engineering and cleaning it finds
nothing applicable — the paper measures 0.0% improvement for it.

This reimplementation keeps that contract: a rule model over
:mod:`table_features` predicts one structural operator (or None), and the
rewrite appends the corresponding pandas line when a prediction fires.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..minipandas import DataFrame
from ..sandbox import run_script
from .base import Baseline
from .table_features import TableFeatures, featurize_table

__all__ = ["AutoSuggest", "predict_next_operator"]

#: The structural operator catalogue and its pandas realization.
OPERATOR_TEMPLATES = {
    "transpose": "df = df.T",
    "melt": "df = pd.melt(df)",
    "pivot": "df = pd.pivot_table(df, values={values!r}, index={index!r}, columns={columns!r})",
}


def predict_next_operator(features: TableFeatures) -> Optional[str]:
    """Predict the single most likely next structural operator.

    Mirrors the published system's decision structure: melt for
    year-in-header wide tables, transpose for attribute-per-row tables,
    pivot for long key/value logs — and *no suggestion* for tables that
    already look relational.
    """
    if features.has_duplicate_keys and features.n_cols <= 4:
        return "pivot"
    if features.looks_relational:
        return None
    if features.yearlike_column_fraction >= 0.3 or features.numeric_name_fraction >= 0.3:
        return "melt"
    if features.wide and features.n_rows < features.n_cols:
        return "transpose"
    return None


class AutoSuggest(Baseline):
    """Single-step structural recommendation appended to the script."""

    name = "Auto-Suggest"

    def __init__(self, data_dir: Optional[str] = None):
        self.data_dir = data_dir

    def rewrite(self, script: str, corpus: Sequence[str]) -> str:
        frame = self._load_input_table(script)
        if frame is None:
            return script
        operator = predict_next_operator(featurize_table(frame))
        if operator is None:
            return script
        template = OPERATOR_TEMPLATES[operator]
        if operator == "pivot":
            object_cols = [c for c in frame.columns if frame[c].dtype == "object"]
            numeric_cols = [
                c for c in frame.columns if frame[c].dtype in ("int64", "float64")
            ]
            if len(object_cols) < 2 or not numeric_cols:
                return script
            template = template.format(
                values=numeric_cols[0], index=object_cols[0], columns=object_cols[1]
            )
        return script + "\n" + template

    def _load_input_table(self, script: str) -> Optional[DataFrame]:
        """Auto-Suggest conditions on D_IN: run just the load prefix."""
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
