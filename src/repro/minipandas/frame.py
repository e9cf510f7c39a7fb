"""A two-dimensional labelled table mirroring the pandas ``DataFrame`` API.

The frame is a column store: an ordered mapping of column name to
:class:`~repro.minipandas.series.Series`, all sharing one row :class:`Index`
object.  The API surface covers everything exercised by the
data-preparation corpora that LucidScript standardizes — selection,
boolean filtering, missing-data handling, dummy encoding, grouping,
merging, and label-based assignment.

Hot ops run as single-pass columnar kernels: they read each column's
payload directly (never per-element ``iloc``) — one numpy call on a typed
array payload, one loop over a list payload — and any column an op leaves
untouched is passed through as the *same payload object* under
copy-on-write (:meth:`Series._share`), so derived frames — and the
sandbox's prefix snapshots — share storage until something actually
writes a cell.  ``LSConfig.audit`` shadow-runs the naive row-at-a-time
references in :mod:`repro.minipandas._naive` against every kernel and
raises :class:`~repro.core.AuditMismatchError` (layer ``kernel``) on
divergence.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import kernels
from ._missing import NA, float64_array, is_missing
from .index import Index, RangeIndex
from .series import Series, _gather

__all__ = ["DataFrame"]

_NUMERIC_DTYPES = ("int64", "float64", "bool")


def _naive():
    """The naive reference implementations, imported lazily: the audit is
    off by default and ``_naive`` imports frame/series back."""
    from . import _naive as module

    return module


class DataFrame:
    """A column-oriented table with pandas-like semantics."""

    def __init__(
        self,
        data: Optional[Union[Dict[str, Iterable[Any]], List[Dict[str, Any]]]] = None,
        index: Optional[Iterable[Any]] = None,
        columns: Optional[Sequence[str]] = None,
    ):
        self._data: Dict[str, Series] = {}
        self._columns: List[str] = []

        if data is None:
            data = {}

        if isinstance(data, DataFrame):
            if index is None:
                index = data._index  # immutable, adopted by reference below
            data = {col: data._data[col] for col in data._columns}

        if isinstance(data, list):
            # list of row dicts
            keys: List[str] = []
            for row in data:
                for key in row:
                    if key not in keys:
                        keys.append(key)
            data = {key: [row.get(key, NA) for row in data] for key in keys}

        if not isinstance(data, dict):
            raise TypeError(f"unsupported DataFrame data type: {type(data).__name__}")

        lengths = {len(list(v)) if not isinstance(v, Series) else len(v) for v in data.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns have mismatched lengths: {sorted(lengths)}")
        n_rows = lengths.pop() if lengths else 0

        if index is None:
            self._index: Index = RangeIndex(n_rows)
        elif isinstance(index, Index):
            self._index = index  # Index is immutable: safe to adopt
        else:
            self._index = Index(index)
        if len(self._index) != n_rows and data:
            raise ValueError(
                f"index length {len(self._index)} does not match data length {n_rows}"
            )

        # every column shares the frame's single Index object; Series
        # payloads are adopted by reference under copy-on-write
        ordered = columns if columns is not None else list(data.keys())
        for col in ordered:
            values = data[col]
            if isinstance(values, Series):
                self._data[col] = values._share(index=self._index, name=col)
            else:
                self._data[col] = Series._from_sequence(values, self._index, col)
            self._columns.append(col)

    # ------------------------------------------------------------------ basics
    @property
    def columns(self) -> List[str]:
        return list(self._columns)

    @property
    def index(self) -> Index:
        return self._index

    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self._index), len(self._columns))

    @property
    def empty(self) -> bool:
        return len(self._index) == 0 or not self._columns

    @property
    def dtypes(self) -> Series:
        return Series(
            [self._data[c].dtype for c in self._columns], index=list(self._columns)
        )

    @property
    def values(self) -> np.ndarray:
        if not self._columns:
            return np.empty((len(self._index), 0))
        cols = [self._data[c].tolist() for c in self._columns]
        if all(self._data[c].dtype in _NUMERIC_DTYPES for c in self._columns):
            return float64_array(cols).T
        return np.array(cols, dtype=object).T

    def __len__(self) -> int:
        return len(self._index)

    def __iter__(self) -> Iterator[str]:
        return iter(self._columns)

    def __contains__(self, col: str) -> bool:
        return col in self._data

    def __repr__(self) -> str:
        head = self.head(8)
        widths = {
            c: max(len(str(c)), *(len(repr(v)) for v in head._data[c])) if len(head) else len(str(c))
            for c in self._columns
        }
        lines = ["  ".join(str(c).rjust(widths[c]) for c in self._columns)]
        for pos in range(len(head)):
            lines.append(
                "  ".join(
                    repr(head._data[c].iloc[pos]).rjust(widths[c]) for c in self._columns
                )
            )
        if len(self) > 8:
            lines.append("...")
        lines.append(f"[{len(self)} rows x {len(self._columns)} columns]")
        return "\n".join(lines)

    @classmethod
    def _from_data(
        cls, columns: Sequence[str], data: Dict[str, Series], index: Index
    ) -> "DataFrame":
        """Internal fast constructor: adopt prepared columns verbatim.

        Callers guarantee *data* holds one Series per name in *columns*,
        each already aligned to *index* (same length, positionally) with
        ``name`` equal to its column name.  No coercion, no Index
        rebuild — this is how kernels hand shared payloads through.
        """
        obj = cls.__new__(cls)
        obj._columns = list(columns)
        obj._data = data
        obj._index = index
        return obj

    def _shared_columns(self) -> Dict[str, Series]:
        """All columns as shared-payload wrappers (the untouched-column
        passthrough used by ``copy``/``take``-identity/no-op kernels)."""
        return {c: self._data[c]._share() for c in self._columns}

    def copy(self) -> "DataFrame":
        """O(columns) structural copy: shared payloads, shared index.

        The row :class:`Index` is immutable and every column payload is
        passed through by reference under copy-on-write — an in-place
        write on either side (``loc`` assignment, ``Series.__setitem__``)
        materializes a private list first, so the copy is as independent
        as a deep copy at a fraction of the cost.  The sandbox's
        incremental executor leans on this to snapshot namespaces between
        statements without duplicating cell storage.
        """
        return DataFrame._from_data(
            self._columns, self._shared_columns(), self._index
        )

    # --------------------------------------------------------------- selection
    def __getitem__(self, key):
        if isinstance(key, str):
            if key not in self._data:
                raise KeyError(f"column {key!r} not found")
            return self._data[key]
        if isinstance(key, Series):
            if key.dtype != "bool":
                raise TypeError("Series used as a DataFrame key must be boolean")
            return self._filter_mask(key)
        if isinstance(key, (list, tuple)):
            if key and all(isinstance(k, (bool, np.bool_)) for k in key):
                return self._filter_mask(
                    Series._from_sequence(list(key), self._index, None)
                )
            missing = [k for k in key if k not in self._data]
            if missing:
                raise KeyError(f"columns {missing!r} not found")
            # column selection leaves values untouched: share every payload
            # (dict ordering mirrors the legacy first-occurrence dedup)
            cols = list(dict.fromkeys(key))
            return DataFrame._from_data(
                cols, {k: self._data[k]._share() for k in cols}, self._index
            )
        if isinstance(key, np.ndarray) and key.dtype == bool:
            return self._filter_mask(
                Series._from_sequence(key.tolist(), self._index, None)
            )
        if isinstance(key, slice):
            return self.iloc[key]
        raise TypeError(f"unsupported DataFrame key: {type(key).__name__}")

    def __setitem__(self, key: str, value) -> None:
        if not isinstance(key, str):
            raise TypeError("column labels must be strings")
        n = len(self._index)
        if isinstance(value, Series):
            if value._index is self._index and self._index.is_unique():
                # derived from this frame (ops share the index object):
                # labels align positionally, so adopt the payload directly
                self._data[key] = value._share(index=self._index, name=key)
            else:
                aligned = self._align_series(value)
                self._data[key] = Series._from_sequence(aligned, self._index, key)
        elif isinstance(value, (list, tuple, np.ndarray)):
            values = list(value)
            if len(values) != n:
                raise ValueError(
                    f"length of values ({len(values)}) does not match rows ({n})"
                )
            self._data[key] = Series._from_sequence(values, self._index, key)
        else:
            self._data[key] = Series._from_sequence([value] * n, self._index, key)
        if key not in self._columns:
            self._columns.append(key)

    def __delitem__(self, key: str) -> None:
        if key not in self._data:
            raise KeyError(f"column {key!r} not found")
        del self._data[key]
        self._columns.remove(key)

    def _align_series(self, series: Series) -> List[Any]:
        by_label = dict(zip(series.index, series))
        return [by_label.get(label, NA) for label in self._index]

    def _filter_mask(self, mask: Series) -> "DataFrame":
        if mask._index is self._index and self._index.is_unique():
            # mask derived from this frame (comparisons/combinators share
            # the index object): flags align positionally
            keep = mask._true_positions()
        else:
            mask_by_label = dict(zip(mask.index, mask))
            keep = [
                pos
                for pos, label in enumerate(self._index)
                if mask_by_label.get(label, False)
            ]
        return self.take(keep)

    def take(self, positions: Sequence[int]) -> "DataFrame":
        positions = list(positions)
        n = len(self._index)
        if len(positions) == n and positions == list(range(n)):
            # identity gather: pass every payload (and the index) through
            return DataFrame._from_data(
                self._columns, self._shared_columns(), self._index
            )
        new_index = self._index.take(positions)
        taken = np.asarray(positions, dtype=np.intp)
        data = {
            c: Series._from_payload(
                _gather(self._data[c]._payload, positions, taken), new_index, c
            )
            for c in self._columns
        }
        out = DataFrame._from_data(self._columns, data, new_index)
        if kernels._AUDIT:
            kernels.audit("take", out, lambda: _naive().take_frame(self, positions))
        return out

    def head(self, n: int = 5) -> "DataFrame":
        return self.take(range(min(max(n, 0), len(self))))

    def tail(self, n: int = 5) -> "DataFrame":
        size = len(self)
        start = max(size - max(n, 0), 0)
        return self.take(range(start, size))

    def pop(self, col: str) -> Series:
        series = self[col]
        del self[col]
        return series

    def get(self, col: str, default=None):
        return self._data.get(col, default)

    def select_dtypes(self, include=None, exclude=None) -> "DataFrame":
        include = _normalize_dtype_filter(include)
        exclude = _normalize_dtype_filter(exclude)
        cols = []
        for c in self._columns:
            dtype = self._data[c].dtype
            if include is not None and dtype not in include:
                continue
            if exclude is not None and dtype in exclude:
                continue
            cols.append(c)
        return self[cols]

    @property
    def loc(self) -> "_Loc":
        return _Loc(self)

    @property
    def iloc(self) -> "_ILoc":
        return _ILoc(self)

    @property
    def T(self) -> "DataFrame":
        return self.transpose()

    def transpose(self) -> "DataFrame":
        new_cols = [str(label) for label in self._index]
        data = {}
        for pos, col in enumerate(new_cols):
            data[col] = [self._data[c].iloc[pos] for c in self._columns]
        return DataFrame(data, index=list(self._columns))

    def iterrows(self) -> Iterator[Tuple[Any, Series]]:
        for pos, label in enumerate(self._index):
            yield label, Series(
                [self._data[c].iloc[pos] for c in self._columns],
                index=list(self._columns),
                name=label,
            )

    def itertuples(self) -> Iterator[tuple]:
        for pos, label in enumerate(self._index):
            yield (label,) + tuple(self._data[c].iloc[pos] for c in self._columns)

    # ------------------------------------------------------------ missing data
    def isnull(self) -> "DataFrame":
        # Series.isnull shares this frame's index, so the bool columns
        # drop straight into a derived frame without re-coercion
        return DataFrame._from_data(
            self._columns,
            {c: self._data[c].isnull() for c in self._columns},
            self._index,
        )

    isna = isnull

    def notnull(self) -> "DataFrame":
        return DataFrame._from_data(
            self._columns,
            {c: self._data[c].notnull() for c in self._columns},
            self._index,
        )

    notna = notnull

    def fillna(self, value) -> "DataFrame":
        out: Dict[str, Series] = {}
        if isinstance(value, Series):
            fill_by_col = dict(zip(value.index, value))
            for c in self._columns:
                if c in fill_by_col and not is_missing(fill_by_col[c]):
                    out[c] = self._data[c].fillna(fill_by_col[c])
                else:
                    out[c] = self._data[c]._share()
        elif isinstance(value, dict):
            for c in self._columns:
                if c in value:
                    out[c] = self._data[c].fillna(value[c])
                else:
                    out[c] = self._data[c]._share()
        else:
            for c in self._columns:
                out[c] = self._data[c].fillna(value)
        result = DataFrame._from_data(self._columns, out, self._index)
        if kernels._AUDIT:
            kernels.audit(
                "fillna", result, lambda: _naive().fillna_frame(self, value)
            )
        return result

    def dropna(
        self,
        axis: int = 0,
        how: Optional[str] = None,
        subset: Optional[Sequence[str]] = None,
        thresh: Optional[int] = None,
    ) -> "DataFrame":
        if how is not None and thresh is not None:
            raise TypeError(
                "You cannot set both the how and thresh arguments at the same time."
            )
        if how is None:
            how = "any"
        if thresh is None and how not in ("any", "all"):
            raise ValueError(f"invalid how: {how!r}")
        if axis == 1:
            cols = []
            for c in self._columns:
                present = self._data[c].count()
                missing = len(self) - present
                if thresh is not None:
                    if present >= thresh:
                        cols.append(c)
                elif how == "any":
                    if missing == 0:
                        cols.append(c)
                else:
                    # "all": drop only columns that are entirely missing; a
                    # zero-row frame has no missing values, so keep every column
                    if present > 0 or len(self) == 0:
                        cols.append(c)
            out = self[cols]
            if kernels._AUDIT:
                kernels.audit(
                    "dropna",
                    out,
                    lambda: _naive().dropna_frame(self, axis, how, subset, thresh),
                )
            return out
        check_cols = list(subset) if subset is not None else list(self._columns)
        for c in check_cols:
            if c not in self._data:
                raise KeyError(f"column {c!r} not found")
        # columnar missing count: one mask per checked column, no iloc
        missing_counts = np.zeros(len(self), dtype=np.intp)
        for c in check_cols:
            missing_counts += self._data[c]._missing()
        n_check = len(check_cols)
        if thresh is not None:
            keep = n_check - missing_counts >= thresh
        elif how == "any":
            keep = missing_counts == 0
        else:
            # "all": a row over zero checked columns has nothing missing
            keep = (n_check - missing_counts > 0) | (not check_cols)
        out = self.take(np.flatnonzero(keep).tolist())
        if kernels._AUDIT:
            kernels.audit(
                "dropna",
                out,
                lambda: _naive().dropna_frame(self, axis, how, subset, thresh),
            )
        return out

    # -------------------------------------------------------------- reductions
    def _numeric_columns(self) -> List[str]:
        return [c for c in self._columns if self._data[c].dtype in _NUMERIC_DTYPES]

    def _reduce(self, op_name: str, numeric_only: bool = True) -> Series:
        cols = self._numeric_columns() if numeric_only else list(self._columns)
        values = [getattr(self._data[c], op_name)() for c in cols]
        return Series(values, index=cols)

    def mean(self, numeric_only: bool = True) -> Series:
        return self._reduce("mean", numeric_only)

    def median(self, numeric_only: bool = True) -> Series:
        return self._reduce("median", numeric_only)

    def std(self, numeric_only: bool = True) -> Series:
        return self._reduce("std", numeric_only)

    def var(self, numeric_only: bool = True) -> Series:
        return self._reduce("var", numeric_only)

    def sum(self, numeric_only: bool = True) -> Series:
        return self._reduce("sum", numeric_only)

    def min(self, numeric_only: bool = False) -> Series:
        return self._reduce("min", numeric_only)

    def max(self, numeric_only: bool = False) -> Series:
        return self._reduce("max", numeric_only)

    def count(self) -> Series:
        return Series(
            [self._data[c].count() for c in self._columns], index=list(self._columns)
        )

    def nunique(self) -> Series:
        return Series(
            [self._data[c].nunique() for c in self._columns], index=list(self._columns)
        )

    def mode(self) -> "DataFrame":
        modes = {c: self._data[c].mode().tolist() for c in self._columns}
        longest = max((len(v) for v in modes.values()), default=0)
        padded = {
            c: values + [NA] * (longest - len(values)) for c, values in modes.items()
        }
        return DataFrame(padded)

    def quantile(self, q: float = 0.5) -> Series:
        cols = self._numeric_columns()
        return Series([self._data[c].quantile(q) for c in cols], index=cols)

    def describe(self) -> "DataFrame":
        cols = self._numeric_columns()
        stats = ["count", "mean", "std", "min", "25%", "50%", "75%", "max"]
        data = {c: self._data[c].describe().tolist() for c in cols}
        return DataFrame(data, index=stats)

    def corr(self) -> "DataFrame":
        cols = self._numeric_columns()
        data = {}
        for c1 in cols:
            data[c1] = [
                1.0 if c1 == c2 else self._data[c1].corr(self._data[c2]) for c2 in cols
            ]
        return DataFrame(data, index=list(cols))

    # ----------------------------------------------------------- deduplication
    def duplicated(self, subset: Optional[Sequence[str]] = None) -> Series:
        check_cols = list(subset) if subset is not None else list(self._columns)
        seen = set()
        flags = []
        n = len(self)
        if not check_cols:
            # zero checked columns: every row shares the empty key
            flags = [pos > 0 for pos in range(n)]
        else:
            # single zip pass over the column payloads; keys use a unique
            # object sentinel for NA (a genuine "__na__" cell never
            # collides) and fall back to a repr key for unhashable cells
            # instead of raising TypeError mid-search
            payloads = [self._data[c].tolist() for c in check_cols]
            for row in zip(*payloads):
                key = kernels.row_key(row)
                flags.append(key in seen)
                seen.add(key)
        out = Series._from_payload(flags, self._index, None)
        if kernels._AUDIT:
            kernels.audit(
                "duplicated", out, lambda: _naive().duplicated_frame(self, subset)
            )
        return out

    def drop_duplicates(self, subset: Optional[Sequence[str]] = None) -> "DataFrame":
        dup = self.duplicated(subset)
        keep = (~dup)._true_positions()
        return self.take(keep)

    # ------------------------------------------------------------- mutations
    def drop(
        self,
        labels=None,
        axis: int = 0,
        columns=None,
        index=None,
        errors: str = "raise",
    ) -> "DataFrame":
        if columns is not None:
            axis, labels = 1, columns
        elif index is not None:
            axis, labels = 0, index
        if labels is None:
            raise TypeError("drop requires labels, columns=, or index=")
        if isinstance(labels, (str, int)) or not isinstance(labels, (list, tuple, set, Index)):
            labels = [labels]
        labels = list(labels)
        if axis == 1:
            missing = [c for c in labels if c not in self._data]
            if missing and errors == "raise":
                raise KeyError(f"columns {missing!r} not found")
            keep = [c for c in self._columns if c not in set(labels)]
            return self[keep]
        drop_set = set(labels)
        if errors == "raise":
            present = set(self._index)
            missing_rows = [lbl for lbl in labels if lbl not in present]
            if missing_rows:
                raise KeyError(f"index labels {missing_rows!r} not found")
        keep_pos = [
            pos for pos, label in enumerate(self._index) if label not in drop_set
        ]
        return self.take(keep_pos)

    def rename(self, columns: Optional[Dict[str, str]] = None, **_ignored) -> "DataFrame":
        if columns is None:
            return self.copy()
        # values untouched: share every payload under the new names
        # (dict collisions keep legacy last-wins, first-insertion order)
        data = {
            columns.get(c, c): self._data[c]._share(name=columns.get(c, c))
            for c in self._columns
        }
        return DataFrame._from_data(list(data.keys()), data, self._index)

    def astype(self, dtype) -> "DataFrame":
        if isinstance(dtype, dict):
            data = {
                c: (
                    self._data[c].astype(dtype[c])
                    if c in dtype
                    else self._data[c]._share()
                )
                for c in self._columns
            }
        else:
            data = {c: self._data[c].astype(dtype) for c in self._columns}
        return DataFrame._from_data(self._columns, data, self._index)

    def apply(self, func: Callable, axis: int = 0):
        if axis == 0:
            results = {}
            scalar = True
            for c in self._columns:
                result = func(self._data[c])
                results[c] = result
                if isinstance(result, Series):
                    scalar = False
            if scalar:
                return Series(
                    [results[c] for c in self._columns], index=list(self._columns)
                )
            return DataFrame(
                {c: list(results[c]) for c in self._columns}, index=self._index.tolist()
            )
        values = []
        for _, row in self.iterrows():
            values.append(func(row))
        return Series(values, index=self._index.tolist())

    def applymap(self, func: Callable[[Any], Any]) -> "DataFrame":
        return DataFrame(
            {c: [func(v) for v in self._data[c]] for c in self._columns},
            index=self._index.tolist(),
        )

    def assign(self, **kwargs) -> "DataFrame":
        out = self.copy()
        for key, value in kwargs.items():
            out[key] = value(out) if callable(value) else value
        return out

    def insert(self, loc: int, column: str, value) -> None:
        if column in self._data:
            raise ValueError(f"column {column!r} already exists")
        self[column] = value
        self._columns.remove(column)
        self._columns.insert(loc, column)

    # ---------------------------------------------------------------- sorting
    def sort_values(self, by, ascending: bool = True) -> "DataFrame":
        if isinstance(by, str):
            by = [by]
        for c in by:
            if c not in self._data:
                raise KeyError(f"column {c!r} not found")

        payloads = [self._data[c].tolist() for c in by]

        def sort_key(pos):
            return tuple(
                (is_missing(v), v if not is_missing(v) else 0)
                for v in (payload[pos] for payload in payloads)
            )

        order = sorted(range(len(self)), key=sort_key, reverse=not ascending)
        if not ascending:
            first = payloads[0]
            order = [p for p in order if not is_missing(first[p])] + [
                p for p in order if is_missing(first[p])
            ]
        return self.take(order)

    def sort_index(self) -> "DataFrame":
        order = sorted(range(len(self)), key=lambda pos: repr(self._index[pos]))
        return self.take(order)

    def reset_index(self, drop: bool = True) -> "DataFrame":
        if drop and not self._columns:
            # legacy round-trip through an empty dict: no columns, no rows
            return DataFrame({})
        new_index = RangeIndex(len(self._index))
        data: Dict[str, Series] = {}
        if not drop:
            data["index"] = Series._from_sequence(
                self._index.tolist(), new_index, "index"
            )
        for c in self._columns:
            # values untouched: share payloads under the fresh range index
            # (an existing "index" column overwrites the label column,
            # matching the legacy dict-merge behaviour)
            data[c] = self._data[c]._share(index=new_index)
        return DataFrame._from_data(list(data.keys()), data, new_index)

    def set_index(self, col: str) -> "DataFrame":
        new_index = Index(self._data[col].tolist())
        cols = [c for c in self._columns if c != col]
        return DataFrame._from_data(
            cols, {c: self._data[c]._share(index=new_index) for c in cols}, new_index
        )

    # ---------------------------------------------------------- imputation etc
    def ffill(self) -> "DataFrame":
        # Series.ffill shares the index (and, when nothing is missing,
        # the payload), so the columns drop straight into a derived frame
        return DataFrame._from_data(
            self._columns,
            {c: self._data[c].ffill() for c in self._columns},
            self._index,
        )

    def bfill(self) -> "DataFrame":
        return DataFrame._from_data(
            self._columns,
            {c: self._data[c].bfill() for c in self._columns},
            self._index,
        )

    def nlargest(self, n: int, columns) -> "DataFrame":
        return self.sort_values(columns, ascending=False).head(n)

    def nsmallest(self, n: int, columns) -> "DataFrame":
        return self.sort_values(columns, ascending=True).head(n)

    def shift(self, periods: int = 1) -> "DataFrame":
        return DataFrame._from_data(
            self._columns,
            {c: self._data[c].shift(periods) for c in self._columns},
            self._index,
        )

    def pivot(self, index: str, columns: str, values: str) -> "DataFrame":
        """Reshape long→wide with unique (index, columns) pairs."""
        from .ops import pivot_table

        seen = set()
        for pos in range(len(self)):
            key = (self._data[index].iloc[pos], self._data[columns].iloc[pos])
            if key in seen:
                raise ValueError(
                    f"pivot requires unique (index, columns) pairs; {key!r} repeats"
                )
            seen.add(key)
        return pivot_table(self, values=values, index=index, columns=columns)

    # --------------------------------------------------------------- sampling
    def sample(
        self,
        n: Optional[int] = None,
        frac: Optional[float] = None,
        random_state: Optional[int] = None,
    ) -> "DataFrame":
        if n is None:
            n = int(round((frac if frac is not None else 1.0) * len(self)))
        n = min(n, len(self))
        rng = np.random.default_rng(random_state)
        positions = sorted(rng.choice(len(self), size=n, replace=False).tolist())
        return self.take(positions)

    def add_prefix(self, prefix: str) -> "DataFrame":
        return self.rename(columns={c: f"{prefix}{c}" for c in self._columns})

    def add_suffix(self, suffix: str) -> "DataFrame":
        return self.rename(columns={c: f"{c}{suffix}" for c in self._columns})

    def isin(self, collection) -> "DataFrame":
        return DataFrame._from_data(
            self._columns,
            {c: self._data[c].isin(collection) for c in self._columns},
            self._index,
        )

    # ----------------------------------------------------------------- query
    def query(self, expression: str, **variables) -> "DataFrame":
        """Filter rows with a boolean expression string.

        Supports comparisons (incl. chained), and/or/not, arithmetic,
        ``in`` membership, and ``@name`` references supplied as keyword
        arguments: ``df.query("Age > @lo and Sex == 'male'", lo=18)``.
        """
        from .query import evaluate_query

        return self[evaluate_query(self, expression, variables)]

    # --------------------------------------------------------------- grouping
    def groupby(self, by):
        from .groupby import GroupBy

        return GroupBy(self, by)

    # ---------------------------------------------------------------- joining
    def merge(
        self,
        right: "DataFrame",
        on: Optional[Union[str, Sequence[str]]] = None,
        how: str = "inner",
        left_on: Optional[str] = None,
        right_on: Optional[str] = None,
        suffixes: Tuple[str, str] = ("_x", "_y"),
    ) -> "DataFrame":
        from .ops import merge

        return merge(
            self, right, on=on, how=how, left_on=left_on, right_on=right_on,
            suffixes=suffixes,
        )

    def append(self, other: "DataFrame") -> "DataFrame":
        from .ops import concat

        return concat([self, other], ignore_index=True)

    # -------------------------------------------------------------------- io
    def to_csv(self, path: str, index: bool = False) -> None:
        from .io import write_csv

        write_csv(self, path, index=index)

    def to_dict(self, orient: str = "list") -> dict:
        if orient == "list":
            return {c: self._data[c].tolist() for c in self._columns}
        if orient == "records":
            return [
                {c: self._data[c].iloc[pos] for c in self._columns}
                for pos in range(len(self))
            ]
        raise ValueError(f"unsupported orient: {orient!r}")


class _Loc:
    """Label-based selection/assignment (``df.loc``)."""

    def __init__(self, frame: DataFrame):
        self._frame = frame

    def __getitem__(self, key):
        frame = self._frame
        if isinstance(key, tuple):
            rows, cols = key
            subset = self._select_rows(rows)
            if isinstance(cols, str):
                return subset[cols] if isinstance(subset, DataFrame) else subset[cols]
            return subset[list(cols)]
        return self._select_rows(key)

    def _select_rows(self, rows):
        frame = self._frame
        if isinstance(rows, Series) and rows.dtype == "bool":
            return frame._filter_mask(rows)
        if isinstance(rows, slice):
            if rows.start is None and rows.stop is None:
                return frame.copy()
            raise NotImplementedError("loc slices with bounds are unsupported")
        if isinstance(rows, (list, Index, np.ndarray)):
            labels = list(rows)
            if labels and all(isinstance(v, (bool, np.bool_)) for v in labels):
                return frame._filter_mask(Series(labels, index=frame.index.tolist()))
            positions = frame.index.positions_for(labels)
            return frame.take(positions)
        # single label -> row Series
        pos = frame.index.get_loc(rows)
        return Series(
            [frame._data[c].iloc[pos] for c in frame.columns],
            index=frame.columns,
            name=rows,
        )

    def __setitem__(self, key, value) -> None:
        frame = self._frame
        if not isinstance(key, tuple):
            raise NotImplementedError("loc assignment requires (rows, column)")
        rows, col = key
        if not isinstance(col, str):
            raise NotImplementedError("loc assignment supports a single column")
        if col not in frame._data:
            frame[col] = NA
        if isinstance(rows, Series) and rows.dtype == "bool":
            positions = [
                frame.index.get_loc(label)
                for label, flag in zip(rows.index, rows)
                if flag and label in frame.index
            ]
        elif isinstance(rows, (list, Index, np.ndarray)):
            positions = frame.index.positions_for(list(rows))
        elif isinstance(rows, slice) and rows.start is None and rows.stop is None:
            positions = list(range(len(frame)))
        else:
            positions = [frame.index.get_loc(rows)]
        if isinstance(value, (list, tuple, np.ndarray, Series)):
            values = list(value)
            if len(values) != len(positions):
                raise ValueError(
                    f"length of values ({len(values)}) does not match targets ({len(positions)})"
                )
        else:
            values = [value] * len(positions)
        # copy-on-write: never touch sharers
        frame._data[col]._write(positions, values)


class _ILoc:
    """Position-based selection (``df.iloc``)."""

    def __init__(self, frame: DataFrame):
        self._frame = frame

    def __getitem__(self, key):
        frame = self._frame
        if isinstance(key, tuple):
            rows, cols = key
            subset = self._select_rows(rows)
            col_names = self._resolve_cols(cols)
            if isinstance(col_names, str):
                if isinstance(subset, Series):
                    return subset[col_names]
                return subset[col_names]
            if isinstance(subset, Series):
                return subset[list(col_names)]
            return subset[list(col_names)]
        return self._select_rows(key)

    def _resolve_cols(self, cols):
        names = self._frame.columns
        if isinstance(cols, int):
            return names[cols]
        if isinstance(cols, slice):
            return names[cols]
        return [names[int(i)] for i in cols]

    def _select_rows(self, rows):
        frame = self._frame
        if isinstance(rows, int):
            pos = rows if rows >= 0 else len(frame) + rows
            if not 0 <= pos < len(frame):
                raise IndexError(f"position {rows} out of bounds for {len(frame)} rows")
            return Series(
                [frame._data[c].iloc[pos] for c in frame.columns],
                index=frame.columns,
                name=frame.index[pos],
            )
        if isinstance(rows, slice):
            return frame.take(range(*rows.indices(len(frame))))
        return frame.take([int(i) for i in rows])


def _normalize_dtype_filter(spec) -> Optional[set]:
    if spec is None:
        return None
    if isinstance(spec, (str, type)):
        spec = [spec]
    out = set()
    for item in spec:
        if item in ("number", "numeric", int, float):
            out.update(("int64", "float64"))
        elif item in ("object", str, "category"):
            out.add("object")
        elif item in ("bool", bool):
            out.add("bool")
        elif item in ("int64", "float64"):
            out.add(item)
        else:
            raise TypeError(f"unsupported dtype filter: {item!r}")
    return out
