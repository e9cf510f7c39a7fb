"""Naive row-at-a-time reference implementations for the kernel audit.

``LSConfig.audit`` makes every columnar kernel shadow-run the
matching function here and demands bit-identical results
(:func:`repro.minipandas.kernels.audit`).  These are the *old* per-element
``iloc`` loops, deliberately kept structurally different from the
kernels — independent gather loops, generic constructors — so the audit
actually cross-checks two implementations rather than one implementation
twice.  They carry the same (bugfixed) key semantics as the kernels:
missing cells key through the unique NA sentinel and unhashable cells
through the repr fallback (:func:`repro.minipandas.kernels.na_key`).

Only imported lazily, when the audit fires: this module imports frame and
series back, and the audit flag is cleared while a reference runs, so
nothing here re-enters the audit.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from . import kernels
from ._missing import is_missing
from .frame import DataFrame
from .series import Series, _coerce_scalar

__all__ = [
    "take_frame",
    "fillna_frame",
    "dropna_frame",
    "duplicated_frame",
    "get_dummies_frame",
    "groupby_agg_frame",
    "groupby_agg_series",
]


def take_frame(frame: DataFrame, positions: Sequence[int]) -> DataFrame:
    data = {
        c: [frame[c].iloc[pos] for pos in positions] for c in frame.columns
    }
    labels = [frame.index[pos] for pos in positions]
    return DataFrame(data, index=labels, columns=frame.columns)


def fillna_frame(frame: DataFrame, value) -> DataFrame:
    if isinstance(value, Series):
        by_col = dict(zip(value.index, value))
        per_col = {
            c: by_col[c]
            for c in frame.columns
            if c in by_col and not is_missing(by_col[c])
        }
    elif isinstance(value, dict):
        per_col = {c: value[c] for c in frame.columns if c in value}
    else:
        per_col = {c: value for c in frame.columns}
    data: Dict[str, List[Any]] = {}
    for c in frame.columns:
        column = frame[c]
        if c in per_col:
            fill = _coerce_scalar(per_col[c])
            data[c] = [
                fill if is_missing(column.iloc[pos]) else column.iloc[pos]
                for pos in range(len(column))
            ]
        else:
            data[c] = column.tolist()
    return DataFrame(data, index=frame.index.tolist(), columns=frame.columns)


def dropna_frame(
    frame: DataFrame,
    axis: int,
    how: str,
    subset: Optional[Sequence[str]],
    thresh: Optional[int],
) -> DataFrame:
    n = len(frame)
    if axis == 1:
        cols = []
        for c in frame.columns:
            missing = sum(
                1 for pos in range(n) if is_missing(frame[c].iloc[pos])
            )
            present = n - missing
            if thresh is not None:
                if present >= thresh:
                    cols.append(c)
            elif how == "any":
                if missing == 0:
                    cols.append(c)
            else:
                if present > 0 or n == 0:
                    cols.append(c)
        data = {c: frame[c].tolist() for c in cols}
        return DataFrame(data, index=frame.index.tolist(), columns=cols)
    check_cols = list(subset) if subset is not None else list(frame.columns)
    keep = []
    for pos in range(n):
        missing = sum(1 for c in check_cols if is_missing(frame[c].iloc[pos]))
        present = len(check_cols) - missing
        if thresh is not None:
            if present >= thresh:
                keep.append(pos)
        elif how == "any":
            if missing == 0:
                keep.append(pos)
        else:
            if present > 0 or not check_cols:
                keep.append(pos)
    return take_frame(frame, keep)


def duplicated_frame(frame: DataFrame, subset: Optional[Sequence[str]]) -> Series:
    check_cols = list(subset) if subset is not None else list(frame.columns)
    seen = set()
    flags = []
    for pos in range(len(frame)):
        key = tuple(kernels.na_key(frame[c].iloc[pos]) for c in check_cols)
        flags.append(key in seen)
        seen.add(key)
    return Series(flags, index=frame.index.tolist())


def _dummy_categories(series: Series, drop_first: bool) -> List[Any]:
    distinct: Dict[Any, Any] = {}
    for pos in range(len(series)):
        v = series.iloc[pos]
        if not is_missing(v):
            distinct.setdefault(kernels.na_key(v), v)
    categories = sorted(distinct.values(), key=lambda v: (str(type(v)), str(v)))
    return categories[1:] if drop_first else categories


def get_dummies_frame(
    frame: DataFrame,
    encode: Sequence[str],
    prefix,
    prefix_sep: str,
    drop_first: bool,
    dtype,
) -> DataFrame:
    zero = _coerce_scalar(dtype(0))
    one = _coerce_scalar(dtype(1))
    out: Dict[str, List[Any]] = {}
    for col in frame.columns:
        if col not in encode:
            out[kernels.fresh_name(col, out)] = frame[col].tolist()
            continue
        series = frame[col]
        categories = _dummy_categories(series, drop_first)
        if isinstance(prefix, dict):
            col_prefix = prefix.get(col, col)
        elif isinstance(prefix, str):
            col_prefix = prefix
        else:
            col_prefix = col
        for category in categories:
            ckey = kernels.na_key(category)
            name = kernels.fresh_name(f"{col_prefix}{prefix_sep}{category}", out)
            out[name] = [
                zero
                if is_missing(series.iloc[pos])
                else (one if kernels.na_key(series.iloc[pos]) == ckey else zero)
                for pos in range(len(series))
            ]
    return DataFrame(out, index=frame.index.tolist())


def _build_groups(frame: DataFrame, by: Sequence[str]) -> Dict[Any, List[int]]:
    groups: Dict[Any, List[int]] = {}
    for pos in range(len(frame)):
        raw = tuple(frame[c].iloc[pos] for c in by)
        if any(is_missing(v) for v in raw):
            continue
        key = raw[0] if len(raw) == 1 else raw
        groups.setdefault(key, []).append(pos)
    return groups


def groupby_agg_frame(
    frame: DataFrame, by: Sequence[str], spec: Dict[str, str]
) -> DataFrame:
    groups = _build_groups(frame, by)
    keys = sorted(groups.keys(), key=repr)
    data: Dict[str, List[Any]] = {}
    for col, func_name in spec.items():
        column = frame[col]
        data[col] = [
            getattr(
                Series([column.iloc[pos] for pos in groups[k]]), func_name
            )()
            for k in keys
        ]
    return DataFrame(data, index=keys)


def groupby_agg_series(
    frame: DataFrame, by: Sequence[str], col: str, func_name: str
) -> Series:
    groups = _build_groups(frame, by)
    keys = sorted(groups.keys(), key=repr)
    column = frame[col]
    values = [
        getattr(Series([column.iloc[pos] for pos in groups[k]]), func_name)()
        for k in keys
    ]
    return Series(values, index=keys, name=col)
