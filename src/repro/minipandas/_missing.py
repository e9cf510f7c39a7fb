"""Missing-value conventions shared across the minipandas substrate.

Numeric columns use ``float('nan')`` as their missing marker; object columns
use ``None``.  ``is_missing`` recognizes both, which lets mixed-provenance
values (e.g. a raw CSV field that failed numeric parsing) flow through
``fillna``/``dropna`` uniformly.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

__all__ = ["NA", "float64_array", "is_missing", "missing_for_dtype"]

#: Canonical missing-value sentinel exposed as ``minipandas.NA``.
NA = float("nan")


def is_missing(value: Any) -> bool:
    """Return True when *value* is a missing-data marker (None or NaN)."""
    if value is None:
        return True
    if isinstance(value, float):
        return math.isnan(value)
    # numpy scalar floats compare unequal to themselves when NaN.
    try:
        return bool(value != value)
    except Exception:
        return False


def float64_array(cells) -> np.ndarray:
    """Numeric cells (or equal-length rows of them) as a float64 array.

    One conversion call: numpy maps ``None`` to NaN and every other cell
    through ``float()``, so the result equals the per-value
    ``NA if is_missing(v) else float(v)`` byte for byte on ``-0.0``,
    bools, numpy scalars and ints past 2**53 or 2**63 (an int past the
    float range raises ``OverflowError`` both ways).  The one difference
    is invisible to ``isnan``: a NaN cell keeps its own sign bit instead
    of becoming the canonical ``NA``.
    """
    return np.array(cells, dtype=np.float64)


def missing_for_dtype(dtype: str) -> Any:
    """Return the missing marker appropriate for a minipandas dtype name."""
    if dtype in ("float64", "int64", "bool"):
        return NA
    return None
