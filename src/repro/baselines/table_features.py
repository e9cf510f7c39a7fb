"""Table characterization shared by the Auto-Suggest/Auto-Tables baselines.

Both published systems decide among *structural* operators by inspecting
the shape of the input table (wide vs. long, header-like value rows,
column-name patterns).  These features drive their rule models here.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..minipandas import DataFrame

__all__ = ["TableFeatures", "featurize_table"]

_YEARLIKE = re.compile(r"^(19|20)\d{2}$")


@dataclass(frozen=True)
class TableFeatures:
    """Structural signals of one table."""

    n_rows: int
    n_cols: int
    numeric_fraction: float
    yearlike_column_fraction: float
    wide: bool
    #: fraction of columns whose name parses as a number (melt signal)
    numeric_name_fraction: float
    #: does some key column combination repeat (pivot signal)?
    has_duplicate_keys: bool

    @property
    def looks_relational(self) -> bool:
        """True when the table already has entity-per-row shape."""
        return (
            not self.wide
            and self.yearlike_column_fraction < 0.3
            and self.numeric_name_fraction < 0.3
        )


def featurize_table(frame: DataFrame) -> TableFeatures:
    n_rows, n_cols = frame.shape
    numeric = sum(
        1 for c in frame.columns if frame[c].dtype in ("int64", "float64", "bool")
    )
    yearlike = sum(1 for c in frame.columns if _YEARLIKE.match(str(c)))
    numeric_names = sum(1 for c in frame.columns if _parses_as_number(str(c)))

    has_dupes = False
    if n_cols >= 2 and n_rows >= 2:
        key_cols = [c for c in frame.columns if frame[c].dtype == "object"][:2]
        if len(key_cols) == 2:
            seen = set()
            for pos in range(min(n_rows, 500)):
                key = (frame[key_cols[0]].iloc[pos], frame[key_cols[1]].iloc[pos])
                if key in seen:
                    has_dupes = True
                    break
                seen.add(key)

    return TableFeatures(
        n_rows=n_rows,
        n_cols=n_cols,
        numeric_fraction=numeric / n_cols if n_cols else 0.0,
        yearlike_column_fraction=yearlike / n_cols if n_cols else 0.0,
        wide=n_cols > 30 and n_cols > n_rows / 4,
        numeric_name_fraction=numeric_names / n_cols if n_cols else 0.0,
        has_duplicate_keys=has_dupes,
    )


def _parses_as_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False
