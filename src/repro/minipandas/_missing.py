"""Missing-value conventions shared across the minipandas substrate.

Numeric columns use ``float('nan')`` as their missing marker; object columns
use ``None``.  ``is_missing`` recognizes both, which lets mixed-provenance
values (e.g. a raw CSV field that failed numeric parsing) flow through
``fillna``/``dropna`` uniformly.
"""

from __future__ import annotations

import math
from types import NoneType
from typing import Any, Sequence

import numpy as np

__all__ = ["NA", "float64_array", "is_missing", "missing_mask", "missing_for_dtype"]

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


#: Exact cell types that are never a missing marker.
_NEVER_MISSING = frozenset({str, int, bool})
#: Exact builtin cell types, missing exactly when ``None`` or NaN.
_BUILTIN = _NEVER_MISSING | {float, NoneType}


def missing_mask(cells: Sequence[Any]) -> np.ndarray:
    """``is_missing`` of every cell of a column payload, as a bool array.

    A typed payload's missing cells are the NaNs of a float array.  For a
    list it is decided from the set of cell types where that suffices:
    str, int and bool cells are never missing, and among exact builtins
    only ``None`` and a NaN float (the one value unequal to itself) are.
    """
    if isinstance(cells, np.ndarray):
        if cells.dtype == np.float64:
            return np.isnan(cells)
        return np.zeros(len(cells), dtype=bool)
    types = set(map(type, cells))
    if types <= _NEVER_MISSING:
        return np.zeros(len(cells), dtype=bool)
    if types <= _BUILTIN:
        return np.array([v is None or v != v for v in cells], dtype=bool)
    return np.array([is_missing(v) for v in cells], dtype=bool)


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
