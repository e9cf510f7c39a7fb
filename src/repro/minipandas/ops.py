"""Module-level table operations: ``get_dummies``, ``concat``, ``merge``,
``cut``, ``qcut``, ``to_numeric``, ``melt``, ``pivot_table``.

These are the free functions the corpus scripts call as ``pd.<name>(...)``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import kernels
from ._missing import NA, is_missing
from .frame import DataFrame
from .series import _ARRAY_DTYPES, _INT64_MAX, _INT64_MIN, Series, _coerce_scalar

__all__ = [
    "get_dummies",
    "concat",
    "merge",
    "cut",
    "qcut",
    "to_numeric",
    "melt",
    "pivot_table",
    "isnull",
    "isna",
    "notnull",
    "unique",
]


def get_dummies(
    data: Union[DataFrame, Series],
    columns: Optional[Sequence[str]] = None,
    prefix: Optional[Union[str, Dict[str, str]]] = None,
    prefix_sep: str = "_",
    drop_first: bool = False,
    dtype=int,
) -> DataFrame:
    """One-hot encode categorical columns (object/bool dtype by default)."""
    if isinstance(data, Series):
        name = data.name or ""
        frame = DataFrame({name: data.tolist()}, index=data.index.tolist())
        return get_dummies(
            frame, columns=[name], prefix=prefix, prefix_sep=prefix_sep,
            drop_first=drop_first, dtype=dtype,
        )

    if columns is None:
        encode = [c for c in data.columns if data[c].dtype in ("object", "bool")]
    else:
        for c in columns:
            if c not in data.columns:
                raise KeyError(f"column {c!r} not found")
        encode = list(columns)

    zero = _coerce_scalar(dtype(0))
    one = _coerce_scalar(dtype(1))
    out: Dict[str, Series] = {}
    for col in data.columns:
        if col not in encode:
            # passthrough columns keep their payloads; colliding names are
            # de-duplicated deterministically in insertion order (first
            # occupant keeps the bare name) instead of silently overwriting
            name = kernels.fresh_name(col, out)
            out[name] = data[col]._share(name=name)
            continue
        categories, codes = _category_codes(data[col])
        if isinstance(prefix, dict):
            col_prefix = prefix.get(col, col)
        elif isinstance(prefix, str):
            col_prefix = prefix
        else:
            col_prefix = col
        for code, category in enumerate(categories):
            if drop_first and code == 0:
                continue
            name = kernels.fresh_name(f"{col_prefix}{prefix_sep}{category}", out)
            column = _dummy_column(codes == code, zero, one)
            out[name] = Series._from_payload(column, data.index, name)
    result = DataFrame._from_data(list(out.keys()), out, data.index)
    if kernels._AUDIT:
        kernels.audit(
            "get_dummies",
            result,
            lambda: _naive_module().get_dummies_frame(
                data, encode, prefix, prefix_sep, drop_first, dtype
            ),
        )
    return result


def _category_codes(series: Series) -> Tuple[List[Any], np.ndarray]:
    """The distinct non-missing values in the established sort order, and
    each cell's position among them (-1 for a missing cell), in one pass.

    Keyed through :func:`kernels.na_key` so a column holding unhashable
    cells yields repr-grouped categories instead of raising ``TypeError``
    mid-search; equal hashable values share a category named by the first
    one seen (``1``/``True``/``1.0`` collapse, like a ``set``).
    """
    cells = series.tolist()
    try:
        hash(tuple(cells))
        keys = cells  # na_key of a hashable present cell is the cell
    except TypeError:
        keys = [kernels.na_key(v) for v in cells]
    slots: Dict[Any, int] = {}
    firsts: List[Any] = []
    codes = [-1] * len(cells)
    for pos in np.flatnonzero(~series._missing()).tolist():
        key = keys[pos]
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(firsts)
            firsts.append(cells[pos])
        codes[pos] = slot
    order = sorted(range(len(firsts)), key=lambda i: (str(type(firsts[i])), str(firsts[i])))
    # rank[slot] is the slot's sorted position; the extra last entry keeps -1
    rank = np.full(len(order) + 1, -1, dtype=np.intp)
    rank[order] = np.arange(len(order))
    return [firsts[i] for i in order], rank[np.asarray(codes, dtype=np.intp)]


def _dummy_column(flags: np.ndarray, zero: Any, one: Any):
    """A dummy column's payload: *one* where *flags* holds, else *zero* —
    built whole before any Series wraps it, as a typed array when both are
    exact floats, bools, or ints within int64."""
    kind = type(zero)
    if kind is type(one) and kind in _ARRAY_DTYPES:
        if kind is not int or all(_INT64_MIN <= v <= _INT64_MAX for v in (zero, one)):
            return np.where(flags, one, zero).astype(_ARRAY_DTYPES[kind], copy=False)
    return [one if flag else zero for flag in flags.tolist()]


def _naive_module():
    from . import _naive as module

    return module


def concat(
    objs: Sequence[Union[DataFrame, Series]],
    axis: int = 0,
    ignore_index: bool = False,
) -> DataFrame:
    """Stack frames vertically (axis=0) or side by side (axis=1)."""
    objs = [
        DataFrame({o.name or str(pos): o.tolist()}, index=o.index.tolist())
        if isinstance(o, Series)
        else o
        for pos, o in enumerate(objs)
    ]
    if not objs:
        raise ValueError("no objects to concatenate")

    if axis == 1:
        n = len(objs[0])
        data: Dict[str, List[Any]] = {}
        for frame in objs:
            if len(frame) != n:
                raise ValueError("axis=1 concat requires equal-length frames")
            for col in frame.columns:
                name = col
                suffix = 1
                while name in data:
                    name = f"{col}_{suffix}"
                    suffix += 1
                data[name] = frame[col].tolist()
        return DataFrame(data, index=objs[0].index.tolist())

    all_columns: List[str] = []
    for frame in objs:
        for col in frame.columns:
            if col not in all_columns:
                all_columns.append(col)
    data = {col: [] for col in all_columns}
    labels: List[Any] = []
    for frame in objs:
        for col in all_columns:
            if col in frame.columns:
                data[col].extend(frame[col].tolist())
            else:
                data[col].extend([NA] * len(frame))
        labels.extend(frame.index.tolist())
    index = None if ignore_index else labels
    return DataFrame(data, index=index)


def merge(
    left: DataFrame,
    right: DataFrame,
    on: Optional[Union[str, Sequence[str]]] = None,
    how: str = "inner",
    left_on: Optional[str] = None,
    right_on: Optional[str] = None,
    suffixes: Tuple[str, str] = ("_x", "_y"),
) -> DataFrame:
    """Database-style join of two frames on key column(s)."""
    if on is not None:
        left_keys = [on] if isinstance(on, str) else list(on)
        right_keys = list(left_keys)
    elif left_on is not None and right_on is not None:
        left_keys, right_keys = [left_on], [right_on]
    else:
        shared = [c for c in left.columns if c in right.columns]
        if not shared:
            raise ValueError("no common columns to merge on")
        left_keys = right_keys = shared

    for key in left_keys:
        if key not in left.columns:
            raise KeyError(f"left key {key!r} not found")
    for key in right_keys:
        if key not in right.columns:
            raise KeyError(f"right key {key!r} not found")

    right_index: Dict[tuple, List[int]] = {}
    for pos in range(len(right)):
        key = tuple(right[k].iloc[pos] for k in right_keys)
        if any(is_missing(v) for v in key):
            continue
        right_index.setdefault(key, []).append(pos)

    left_value_cols = [c for c in left.columns]
    right_value_cols = [c for c in right.columns if c not in set(right_keys) or right_keys != left_keys]
    if right_keys == left_keys:
        right_value_cols = [c for c in right.columns if c not in set(right_keys)]

    def out_name(col: str, side: int) -> str:
        other = right.columns if side == 0 else left.columns
        keys = right_keys if side == 0 else left_keys
        if col in other and col not in keys:
            return col + suffixes[side]
        return col

    data: Dict[str, List[Any]] = {out_name(c, 0): [] for c in left_value_cols}
    for c in right_value_cols:
        data[out_name(c, 1)] = []

    matched_right: set = set()
    for lpos in range(len(left)):
        key = tuple(left[k].iloc[lpos] for k in left_keys)
        matches = right_index.get(key, []) if not any(is_missing(v) for v in key) else []
        if matches:
            matched_right.update(matches)
            for rpos in matches:
                for c in left_value_cols:
                    data[out_name(c, 0)].append(left[c].iloc[lpos])
                for c in right_value_cols:
                    data[out_name(c, 1)].append(right[c].iloc[rpos])
        elif how in ("left", "outer"):
            for c in left_value_cols:
                data[out_name(c, 0)].append(left[c].iloc[lpos])
            for c in right_value_cols:
                data[out_name(c, 1)].append(NA)

    if how in ("right", "outer"):
        for rpos in range(len(right)):
            if rpos in matched_right:
                continue
            for c in left_value_cols:
                if c in left_keys:
                    key_pos = left_keys.index(c)
                    data[out_name(c, 0)].append(right[right_keys[key_pos]].iloc[rpos])
                else:
                    data[out_name(c, 0)].append(NA)
            for c in right_value_cols:
                data[out_name(c, 1)].append(right[c].iloc[rpos])

    return DataFrame(data)


def cut(series: Series, bins: Union[int, Sequence[float]], labels=None) -> Series:
    """Bin numeric values into discrete intervals."""
    values = series.tolist()
    numeric = [float(v) for v in values if not is_missing(v)]
    if isinstance(bins, int):
        if not numeric:
            return Series([NA] * len(values), index=series.index.tolist(), name=series.name)
        lo, hi = min(numeric), max(numeric)
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        edges = np.linspace(lo, hi, bins + 1).tolist()
        edges[0] -= abs(hi - lo) * 1e-3
    else:
        edges = [float(b) for b in bins]

    out = []
    for v in values:
        if is_missing(v):
            out.append(NA)
            continue
        placed = False
        for b in range(len(edges) - 1):
            if edges[b] < float(v) <= edges[b + 1]:
                out.append(
                    labels[b] if labels is not None else f"({edges[b]:g}, {edges[b + 1]:g}]"
                )
                placed = True
                break
        if not placed:
            out.append(NA)
    return Series(out, index=series.index.tolist(), name=series.name)


def qcut(series: Series, q: int, labels=None) -> Series:
    """Quantile-based binning."""
    numeric = sorted(float(v) for v in series if not is_missing(v))
    if not numeric:
        return Series([NA] * len(series), index=series.index.tolist(), name=series.name)
    edges = [float(np.quantile(numeric, i / q)) for i in range(q + 1)]
    # collapse duplicate edges to keep bins well-formed
    unique_edges = [edges[0] - 1e-9]
    for e in edges[1:]:
        if e > unique_edges[-1]:
            unique_edges.append(e)
    return cut(series, unique_edges, labels=labels[: len(unique_edges) - 1] if labels else None)


def to_numeric(series: Series, errors: str = "raise") -> Series:
    """Convert values to floats; errors='coerce' maps failures to NaN."""
    out = []
    for v in series:
        if is_missing(v):
            out.append(NA)
            continue
        try:
            as_float = float(v)
            out.append(int(as_float) if isinstance(v, (int, np.integer)) else as_float)
        except (TypeError, ValueError):
            if errors == "coerce":
                out.append(NA)
            else:
                raise ValueError(f"unable to parse {v!r} as numeric") from None
    return Series(out, index=series.index.tolist(), name=series.name)


def melt(
    frame: DataFrame,
    id_vars: Optional[Sequence[str]] = None,
    value_vars: Optional[Sequence[str]] = None,
    var_name: str = "variable",
    value_name: str = "value",
) -> DataFrame:
    """Unpivot from wide to long format."""
    id_vars = list(id_vars) if id_vars is not None else []
    if value_vars is None:
        value_vars = [c for c in frame.columns if c not in id_vars]
    data: Dict[str, List[Any]] = {c: [] for c in id_vars}
    data[var_name] = []
    data[value_name] = []
    for var in value_vars:
        for pos in range(len(frame)):
            for c in id_vars:
                data[c].append(frame[c].iloc[pos])
            data[var_name].append(var)
            data[value_name].append(frame[var].iloc[pos])
    return DataFrame(data)


def pivot_table(
    frame: DataFrame,
    values: str,
    index: str,
    columns: str,
    aggfunc: str = "mean",
) -> DataFrame:
    """Spread a long table into a wide one with one aggregate per cell."""
    row_keys = sorted({v for v in frame[index] if not is_missing(v)}, key=repr)
    col_keys = sorted({v for v in frame[columns] if not is_missing(v)}, key=repr)
    cells: Dict[tuple, List[float]] = {}
    for pos in range(len(frame)):
        r, c, v = frame[index].iloc[pos], frame[columns].iloc[pos], frame[values].iloc[pos]
        if is_missing(r) or is_missing(c) or is_missing(v):
            continue
        cells.setdefault((r, c), []).append(float(v))

    def aggregate(bucket: List[float]):
        if not bucket:
            return NA
        if aggfunc == "mean":
            return float(np.mean(bucket))
        if aggfunc == "sum":
            return float(np.sum(bucket))
        if aggfunc == "count":
            return len(bucket)
        if aggfunc == "median":
            return float(np.median(bucket))
        raise ValueError(f"unsupported aggfunc: {aggfunc!r}")

    data = {
        str(ck): [aggregate(cells.get((rk, ck), [])) for rk in row_keys]
        for ck in col_keys
    }
    return DataFrame(data, index=row_keys)


def isnull(obj):
    """Module-level null check over a Series/DataFrame/scalar."""
    if isinstance(obj, (Series, DataFrame)):
        return obj.isnull()
    return is_missing(obj)


isna = isnull


def notnull(obj):
    if isinstance(obj, (Series, DataFrame)):
        return obj.notnull()
    return not is_missing(obj)


def unique(series: Series) -> List[Any]:
    return series.unique()
