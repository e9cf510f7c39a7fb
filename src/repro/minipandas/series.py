"""A one-dimensional labelled array mirroring the pandas ``Series`` API.

Values are stored as a plain Python list — the column *payload*.
Payloads are treated as immutable and structurally shared: ``copy()``,
untouched-column passthrough in DataFrame ops, and sandbox snapshots all
reference the same list, and the few in-place mutation entry points
(``__setitem__``, ``loc`` assignment) copy-on-write through
:meth:`Series._materialize` first.  Mixed-type and missing-data handling
stay straightforward; numeric reductions convert to numpy on demand.
"""

from __future__ import annotations

import math
from types import NoneType
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from . import kernels
from ._missing import NA, float64_array, is_missing
from .index import Index, RangeIndex

__all__ = ["Series"]

_UNSET = object()


#: Cell types whose presence alone decides the dtype (exact types only:
#: subclasses such as ``IntEnum`` and numpy scalars take the scan).
_PLAIN_TYPES = frozenset({bool, int, float, str, NoneType})


def _infer_dtype(values: Sequence[Any]) -> str:
    """Infer a minipandas dtype name ('int64'|'float64'|'bool'|'object').

    Missing markers (None/NaN) do not force object dtype: a column of ints
    with gaps is float64, matching pandas' NaN-promotion behaviour.

    Decided from the set of cell types in one C-level pass whenever every
    type is a plain builtin; a float there is either a value or a NaN gap,
    and both read the same except next to bools without ints, where only
    NaN-ness tells ``object`` from ``float64`` — that case, and any other
    type, takes :func:`_infer_dtype_scan`.
    """
    types = set(map(type, values))
    if not types <= _PLAIN_TYPES:
        return _infer_dtype_scan(values)
    if str in types:
        return "object"
    if int in types:
        return "float64" if (float in types or NoneType in types) else "int64"
    if bool in types:
        if float in types:
            return _infer_dtype_scan(values)
        return "object" if NoneType in types else "bool"
    return "float64"


def _infer_dtype_scan(values: Sequence[Any]) -> str:
    """The per-value dtype scan: any cell type, one ``is_missing`` each."""
    saw_float = saw_int = saw_bool = saw_other = saw_missing = False
    for v in values:
        if is_missing(v):
            saw_missing = True
        elif isinstance(v, (bool, np.bool_)):
            saw_bool = True
        elif isinstance(v, (int, np.integer)):
            saw_int = True
        elif isinstance(v, (float, np.floating)):
            saw_float = True
        else:
            saw_other = True
    if saw_other:
        return "object"
    if saw_bool and not (saw_int or saw_float):
        return "bool" if not saw_missing else "object"
    if saw_float or (saw_int and saw_missing):
        return "float64"
    if saw_int:
        return "int64"
    # all values missing (or empty): float64 matches pandas' all-NaN columns
    return "float64"


def _coerce_scalar(value: Any) -> Any:
    """Normalize numpy scalars to builtin Python scalars."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.str_):
        return str(value)
    return value


class Series:
    """A labelled 1-D column of values with pandas-like semantics."""

    #: Copy-on-write marker: True when ``_values`` may be referenced by
    #: another Series (class-level default so ``__new__`` paths start
    #: unshared without an explicit assignment).
    _shared = False

    def __init__(
        self,
        data: Iterable[Any] = (),
        index: Optional[Iterable[Any]] = None,
        name: Optional[str] = None,
        dtype: Optional[str] = None,
    ):
        shared_index: Optional[Index] = None
        shared_payload = False
        if isinstance(data, Series):
            # constructor values are already coerced, so adopt the payload
            # by reference; copy-on-write isolates later mutation
            values = data._values
            shared_payload = True
            data._shared = True
            if index is None:
                shared_index = data._index
            if name is None:
                name = data.name
        elif isinstance(data, dict):
            if index is None:
                index = list(data.keys())
            values = [data[k] for k in index]
        elif isinstance(data, np.ndarray):
            values = [_coerce_scalar(v) for v in data.tolist()] if data.dtype == object else data.tolist()
        else:
            values = [_coerce_scalar(v) for v in data]
        self._values: List[Any] = values
        if shared_index is not None:
            self._index: Index = shared_index
        else:
            self._index = Index(index) if index is not None else RangeIndex(len(values))
        if len(self._index) != len(self._values):
            raise ValueError(
                f"index length {len(self._index)} does not match data length {len(self._values)}"
            )
        self.name = name
        if dtype is not None:
            self._values = _cast_values(self._values, dtype)
        elif shared_payload:
            self._shared = True

    # ------------------------------------------------------------------ basics
    @property
    def values(self) -> np.ndarray:
        dtype = self.dtype
        if dtype == "float64":
            return float64_array(self._values)
        if dtype == "int64":
            return np.array(self._values, dtype=np.int64)
        if dtype == "bool":
            return np.array(self._values, dtype=bool)
        return np.array(self._values, dtype=object)

    @property
    def index(self) -> Index:
        return self._index

    @property
    def dtype(self) -> str:
        return _infer_dtype(self._values)

    @property
    def shape(self) -> tuple:
        return (len(self._values),)

    @property
    def empty(self) -> bool:
        return not self._values

    @property
    def size(self) -> int:
        return len(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._values)

    def __contains__(self, label: Any) -> bool:
        return label in self._index

    def __repr__(self) -> str:
        lines = [
            f"{label}\t{value!r}"
            for label, value in list(zip(self._index, self._values))[:10]
        ]
        if len(self._values) > 10:
            lines.append("...")
        lines.append(f"Name: {self.name}, Length: {len(self)}, dtype: {self.dtype}")
        return "\n".join(lines)

    def copy(self) -> "Series":
        return self._clone(self._index)

    def _clone(self, index: Index) -> "Series":
        """O(1) structural copy: shared payload, shared immutable index.

        Both the payload list and the ``Index`` are shared by reference —
        the payload under copy-on-write (any in-place mutation on either
        side materializes a private list first), the index because it is
        immutable.  This is the cheap snapshot primitive behind the
        incremental sandbox executor: snapshots and live namespaces share
        column storage until a script actually writes a cell.
        """
        return self._share(index=index)

    def _share(self, index: Optional[Index] = None, name: Any = _UNSET) -> "Series":
        """A new Series referencing this payload (both sides marked shared).

        Used wherever an op leaves a column untouched: the derived frame
        passes the same payload object through instead of rebuilding the
        list.  *index*/*name* override the wrapper's labels/name without
        touching the payload (e.g. ``rename``, ``reset_index``).
        """
        self._shared = True
        out = Series.__new__(Series)
        out._values = self._values
        out._shared = True
        out._index = self._index if index is None else index
        out.name = self.name if name is _UNSET else name
        return out

    def _materialize(self) -> List[Any]:
        """The payload as a privately owned list — copy-on-write barrier.

        Every in-place mutation entry point calls this first; when the
        payload is shared the list is copied once and the flag cleared,
        so sharers never observe the write.
        """
        if self._shared:
            self._values = list(self._values)
            self._shared = False
        return self._values

    @classmethod
    def _from_payload(cls, values: List[Any], index: Index, name) -> "Series":
        """Internal fast constructor: adopt *values* (already coerced) and
        *index* (an Index object) without copying or re-validating."""
        out = cls.__new__(cls)
        out._values = values
        out._index = index
        out.name = name
        return out

    @classmethod
    def _from_sequence(cls, values, index: Index, name) -> "Series":
        """Coerce caller-supplied *values* and attach an existing Index
        object, skipping the constructor's per-column Index rebuild."""
        if isinstance(values, np.ndarray):
            coerced = (
                [_coerce_scalar(v) for v in values.tolist()]
                if values.dtype == object
                else values.tolist()
            )
        else:
            coerced = [_coerce_scalar(v) for v in values]
        if len(coerced) != len(index):
            raise ValueError(
                f"index length {len(index)} does not match data length {len(coerced)}"
            )
        return cls._from_payload(coerced, index, name)

    def _with_values(self, values: List[Any], coerce: bool = False) -> "Series":
        """Derive a Series with new *values* but this Series' labels.

        ``Index`` is immutable, so the derived Series shares ``self._index``
        directly instead of paying ``tolist()`` + ``Index(...)`` (a full
        label-list copy and position-map rebuild) on every elementwise op.
        ``coerce`` applies the constructor's numpy-scalar normalization and
        is only needed when *values* may contain caller-supplied objects.
        """
        out = Series.__new__(Series)
        out._values = [_coerce_scalar(v) for v in values] if coerce else values
        out._index = self._index
        out.name = self.name
        return out

    def tolist(self) -> List[Any]:
        return list(self._values)

    def to_list(self) -> List[Any]:
        return self.tolist()

    def item(self) -> Any:
        if len(self._values) != 1:
            raise ValueError("can only convert a length-1 Series to a scalar")
        return self._values[0]

    # --------------------------------------------------------------- indexing
    def __getitem__(self, key):
        if isinstance(key, Series) and key.dtype == "bool":
            return self._filter_mask(key)
        if isinstance(key, (list, np.ndarray)) and len(key) and isinstance(key[0], (bool, np.bool_)):
            return self._filter_mask(self._with_values([bool(f) for f in key]))
        if isinstance(key, slice):
            return Series(
                self._values[key], index=self._index.tolist()[key], name=self.name
            )
        if isinstance(key, tuple) and key in self._index:
            return self._values[self._index.get_loc(key)]
        if isinstance(key, (list, tuple)):
            positions = self._index.positions_for(key)
            return self.take(positions)
        pos = self._index.get_loc(key)
        return self._values[pos]

    def __setitem__(self, key, value) -> None:
        if isinstance(key, Series) and key.dtype == "bool":
            positions = [
                self._index.get_loc(label)
                for label, flag in zip(key.index, key._values)
                if flag
            ]
            values = self._materialize()
            for pos in positions:
                values[pos] = value
            return
        pos = self._index.get_loc(key)
        self._materialize()[pos] = value

    def _filter_mask(self, mask: "Series") -> "Series":
        if mask._index is self._index and self._index.is_unique():
            # the mask was derived from this Series (comparisons share the
            # index object), so flags align positionally — skip the
            # label-alignment dict entirely
            return self.take([pos for pos, flag in enumerate(mask._values) if flag])
        mask_by_label = dict(zip(mask.index, mask._values))
        values, labels = [], []
        for label, value in zip(self._index, self._values):
            if mask_by_label.get(label, False):
                values.append(value)
                labels.append(label)
        return Series(values, index=labels, name=self.name)

    def take(self, positions: Sequence[int]) -> "Series":
        positions = list(positions)
        values = self._values
        return Series._from_payload(
            [values[p] for p in positions],
            self._index.take(positions),
            self.name,
        )

    @property
    def iloc(self) -> "_SeriesILoc":
        return _SeriesILoc(self)

    @property
    def loc(self) -> "_SeriesLoc":
        return _SeriesLoc(self)

    def head(self, n: int = 5) -> "Series":
        return self[: max(n, 0)]

    def tail(self, n: int = 5) -> "Series":
        if n <= 0:
            return self[len(self):]
        return self[-n:]

    def reset_index(self, drop: bool = False):
        if not drop:
            raise NotImplementedError("Series.reset_index(drop=False) is unsupported")
        return self._share(index=RangeIndex(len(self._values)))

    # ------------------------------------------------------- elementwise math
    def _binary_op(self, other: Any, op: Callable[[Any, Any], Any], propagate_na: bool = True) -> "Series":
        if isinstance(other, Series):
            other_by_label = dict(zip(other.index, other._values))
            values = []
            for label, value in zip(self._index, self._values):
                rhs = other_by_label.get(label, NA)
                if propagate_na and (is_missing(value) or is_missing(rhs)):
                    values.append(NA)
                else:
                    values.append(op(value, rhs))
            return self._with_values(values, coerce=True)
        values = []
        for value in self._values:
            if propagate_na and is_missing(value):
                values.append(NA)
            else:
                values.append(op(value, other))
        return self._with_values(values, coerce=True)

    def _compare(self, other: Any, op: Callable[[Any, Any], bool]) -> "Series":
        def safe(lhs, rhs):
            if is_missing(lhs) or is_missing(rhs):
                return False
            try:
                return bool(op(lhs, rhs))
            except TypeError:
                return False

        if isinstance(other, Series):
            other_by_label = dict(zip(other.index, other._values))
            values = [
                safe(value, other_by_label.get(label, NA))
                for label, value in zip(self._index, self._values)
            ]
        else:
            values = [safe(value, other) for value in self._values]
        return self._with_values(values)

    def __add__(self, other):
        return self._binary_op(other, lambda a, b: a + b)

    def __radd__(self, other):
        return self._binary_op(other, lambda a, b: b + a)

    def __sub__(self, other):
        return self._binary_op(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary_op(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary_op(other, lambda a, b: a * b)

    def __rmul__(self, other):
        return self._binary_op(other, lambda a, b: b * a)

    def __truediv__(self, other):
        return self._binary_op(other, _safe_div)

    def __rtruediv__(self, other):
        return self._binary_op(other, lambda a, b: _safe_div(b, a))

    def __floordiv__(self, other):
        return self._binary_op(other, lambda a, b: a // b if b != 0 else NA)

    def __mod__(self, other):
        return self._binary_op(other, lambda a, b: a % b if b != 0 else NA)

    def __pow__(self, other):
        return self._binary_op(other, lambda a, b: a ** b)

    def __neg__(self):
        return self._binary_op(0, lambda a, _b: -a)

    def __eq__(self, other):  # type: ignore[override]
        return self._compare(other, lambda a, b: a == b)

    def __ne__(self, other):  # type: ignore[override]
        return self._compare(other, lambda a, b: a != b)

    def __lt__(self, other):
        return self._compare(other, lambda a, b: a < b)

    def __le__(self, other):
        return self._compare(other, lambda a, b: a <= b)

    def __gt__(self, other):
        return self._compare(other, lambda a, b: a > b)

    def __ge__(self, other):
        return self._compare(other, lambda a, b: a >= b)

    __hash__ = None  # type: ignore[assignment]

    def __and__(self, other):
        return self._binary_op(other, lambda a, b: bool(a) and bool(b), propagate_na=False)

    def __or__(self, other):
        return self._binary_op(other, lambda a, b: bool(a) or bool(b), propagate_na=False)

    def __xor__(self, other):
        return self._binary_op(other, lambda a, b: bool(a) != bool(b), propagate_na=False)

    def __invert__(self):
        return self._with_values(
            [not bool(v) if not is_missing(v) else True for v in self._values]
        )

    def __bool__(self):
        raise ValueError(
            "The truth value of a Series is ambiguous. Use s.any() or s.all()."
        )

    # ----------------------------------------------------------- missing data
    def isnull(self) -> "Series":
        return self._with_values([is_missing(v) for v in self._values])

    isna = isnull

    def notnull(self) -> "Series":
        return ~self.isnull()

    notna = notnull

    def fillna(self, value: Any) -> "Series":
        if isinstance(value, Series):
            fill_by_label = dict(zip(value.index, value._values))
            out: Optional[List[Any]] = None
            for pos, (label, v) in enumerate(zip(self._index, self._values)):
                if is_missing(v) and label in fill_by_label:
                    if out is None:
                        out = list(self._values)
                    out[pos] = _coerce_scalar(fill_by_label[label])
        else:
            fill = _coerce_scalar(value)
            out = None
            for pos, v in enumerate(self._values):
                if is_missing(v):
                    if out is None:
                        out = list(self._values)
                    out[pos] = fill
        if out is None:
            # nothing filled: pass the payload through untouched
            return self._share()
        return self._with_values(out)

    def dropna(self) -> "Series":
        pairs = [
            (label, v) for label, v in zip(self._index, self._values) if not is_missing(v)
        ]
        return Series(
            [v for _, v in pairs], index=[label for label, _ in pairs], name=self.name
        )

    # ------------------------------------------------------------- predicates
    def between(self, left: Any, right: Any, inclusive: str = "both") -> "Series":
        if inclusive == "both":
            op = lambda v: left <= v <= right
        elif inclusive == "neither":
            op = lambda v: left < v < right
        elif inclusive == "left":
            op = lambda v: left <= v < right
        elif inclusive == "right":
            op = lambda v: left < v <= right
        else:
            raise ValueError(f"invalid inclusive value: {inclusive!r}")
        values = [False if is_missing(v) else bool(op(v)) for v in self._values]
        return self._with_values(values)

    def isin(self, collection: Iterable[Any]) -> "Series":
        lookup = set(collection)
        values = [
            False if is_missing(v) else v in lookup for v in self._values
        ]
        return self._with_values(values)

    def any(self) -> bool:
        return any(bool(v) for v in self._values if not is_missing(v))

    def all(self) -> bool:
        return all(bool(v) for v in self._values if not is_missing(v))

    def duplicated(self) -> "Series":
        seen = set()
        flags = []
        for v in self._values:
            # unique object sentinel: a genuine ("__na__",) cell can never
            # collide with NA; unhashable cells fall back to a repr key
            key = kernels.na_key(v)
            flags.append(key in seen)
            seen.add(key)
        return self._with_values(flags)

    # ------------------------------------------------------------ conversions
    def astype(self, dtype) -> "Series":
        name = _dtype_name(dtype)
        return self._with_values(_cast_values(self._values, name))

    def map(self, mapper) -> "Series":
        if isinstance(mapper, dict):
            values = [
                NA if is_missing(v) else mapper.get(v, NA) for v in self._values
            ]
        else:
            values = [NA if is_missing(v) else mapper(v) for v in self._values]
        return self._with_values(values, coerce=True)

    def apply(self, func: Callable[[Any], Any]) -> "Series":
        return self._with_values([func(v) for v in self._values], coerce=True)

    def replace(self, to_replace, value=None) -> "Series":
        if isinstance(to_replace, dict):
            mapping = to_replace
            values = [
                mapping.get(v, v) if not is_missing(v) else v for v in self._values
            ]
        else:
            targets = (
                set(to_replace) if isinstance(to_replace, (list, tuple, set)) else {to_replace}
            )
            values = [
                value if (not is_missing(v) and v in targets) else v
                for v in self._values
            ]
        return self._with_values(values, coerce=True)

    def clip(self, lower=None, upper=None) -> "Series":
        def clip_one(v):
            if is_missing(v):
                return v
            if lower is not None and v < lower:
                return lower
            if upper is not None and v > upper:
                return upper
            return v

        return self._with_values([clip_one(v) for v in self._values], coerce=True)

    def abs(self) -> "Series":
        return self._with_values(
            [v if is_missing(v) else abs(v) for v in self._values]
        )

    def round(self, decimals: int = 0) -> "Series":
        return self._with_values(
            [v if is_missing(v) else round(v, decimals) for v in self._values]
        )

    # ------------------------------------------------------------- reductions
    def _numeric(self) -> List[float]:
        out = []
        for v in self._values:
            if is_missing(v):
                continue
            if isinstance(v, bool):
                out.append(float(v))
            elif isinstance(v, (int, float)):
                out.append(float(v))
        return out

    def count(self) -> int:
        return sum(1 for v in self._values if not is_missing(v))

    def sum(self):
        nums = self._numeric()
        return float(np.sum(nums)) if nums else 0.0

    def mean(self):
        nums = self._numeric()
        return float(np.mean(nums)) if nums else NA

    def median(self):
        nums = self._numeric()
        return float(np.median(nums)) if nums else NA

    def std(self, ddof: int = 1):
        nums = self._numeric()
        if len(nums) <= ddof:
            return NA
        return float(np.std(nums, ddof=ddof))

    def var(self, ddof: int = 1):
        nums = self._numeric()
        if len(nums) <= ddof:
            return NA
        return float(np.var(nums, ddof=ddof))

    def min(self):
        present = [v for v in self._values if not is_missing(v)]
        return min(present) if present else NA

    def max(self):
        present = [v for v in self._values if not is_missing(v)]
        return max(present) if present else NA

    def quantile(self, q: float = 0.5):
        nums = self._numeric()
        return float(np.quantile(nums, q)) if nums else NA

    def skew(self):
        nums = self._numeric()
        if len(nums) < 3:
            return NA
        arr = np.asarray(nums)
        centered = arr - arr.mean()
        std = arr.std(ddof=1)
        if std == 0:
            return 0.0
        n = len(arr)
        return float((n / ((n - 1) * (n - 2))) * np.sum((centered / std) ** 3))

    def mode(self) -> "Series":
        counts: Dict[Any, int] = {}
        for v in self._values:
            if is_missing(v):
                continue
            counts[v] = counts.get(v, 0) + 1
        if not counts:
            return Series([], name=self.name)
        best = max(counts.values())
        modes = sorted((v for v, c in counts.items() if c == best), key=repr)
        return Series(modes, name=self.name)

    def idxmax(self):
        best_label, best_value = None, None
        for label, v in zip(self._index, self._values):
            if is_missing(v):
                continue
            if best_value is None or v > best_value:
                best_label, best_value = label, v
        if best_label is None:
            raise ValueError("attempt to get idxmax of an all-NA Series")
        return best_label

    def idxmin(self):
        best_label, best_value = None, None
        for label, v in zip(self._index, self._values):
            if is_missing(v):
                continue
            if best_value is None or v < best_value:
                best_label, best_value = label, v
        if best_label is None:
            raise ValueError("attempt to get idxmin of an all-NA Series")
        return best_label

    def nunique(self, dropna: bool = True) -> int:
        seen = set()
        has_na = False
        for v in self._values:
            if is_missing(v):
                has_na = True
            else:
                seen.add(v)
        return len(seen) + (0 if dropna else int(has_na))

    def unique(self) -> List[Any]:
        seen = set()
        out = []
        for v in self._values:
            key = kernels.na_key(v)
            if key not in seen:
                seen.add(key)
                out.append(v)
        return out

    def value_counts(self, normalize: bool = False, dropna: bool = True) -> "Series":
        counts: Dict[Any, int] = {}
        for v in self._values:
            if dropna and is_missing(v):
                continue
            key = NA if is_missing(v) else v
            counts[key] = counts.get(key, 0) + 1
        items = sorted(counts.items(), key=lambda kv: (-kv[1], repr(kv[0])))
        total = sum(counts.values()) or 1
        values = [c / total if normalize else c for _, c in items]
        return Series(values, index=[k for k, _ in items], name=self.name)

    def describe(self) -> "Series":
        stats = {
            "count": self.count(),
            "mean": self.mean(),
            "std": self.std(),
            "min": self.min(),
            "25%": self.quantile(0.25),
            "50%": self.quantile(0.5),
            "75%": self.quantile(0.75),
            "max": self.max(),
        }
        return Series(list(stats.values()), index=list(stats.keys()), name=self.name)

    # ----------------------------------------------------------------- sorting
    def sort_values(self, ascending: bool = True) -> "Series":
        def sort_key(pair):
            v = pair[1]
            return (is_missing(v), v if not is_missing(v) else 0)

        pairs = sorted(zip(self._index, self._values), key=sort_key, reverse=not ascending)
        if not ascending:
            # keep missing values last regardless of direction
            pairs = [p for p in pairs if not is_missing(p[1])] + [
                p for p in pairs if is_missing(p[1])
            ]
        return Series(
            [v for _, v in pairs], index=[label for label, _ in pairs], name=self.name
        )

    def sort_index(self) -> "Series":
        pairs = sorted(zip(self._index, self._values), key=lambda p: repr(p[0]))
        return Series(
            [v for _, v in pairs], index=[label for label, _ in pairs], name=self.name
        )

    # ---------------------------------------------------------------- sampling
    def sample(self, n: Optional[int] = None, frac: Optional[float] = None,
               random_state: Optional[int] = None) -> "Series":
        if n is None:
            n = int(round((frac if frac is not None else 1.0) * len(self)))
        n = min(n, len(self))
        rng = np.random.default_rng(random_state)
        positions = sorted(rng.choice(len(self), size=n, replace=False).tolist())
        return self.take(positions)

    # -------------------------------------------------------- windows & order
    def shift(self, periods: int = 1) -> "Series":
        """Shift values by *periods* positions, filling vacated slots with NaN."""
        n = len(self._values)
        if periods >= 0:
            values = [NA] * min(periods, n) + self._values[: max(n - periods, 0)]
        else:
            k = min(-periods, n)
            values = self._values[k:] + [NA] * k
        return self._with_values(values)

    def diff(self, periods: int = 1) -> "Series":
        shifted = self.shift(periods)
        return self - shifted

    def pct_change(self, periods: int = 1) -> "Series":
        previous = self.shift(periods)
        return (self - previous) / previous

    def cumsum(self) -> "Series":
        values, total = [], 0.0
        for v in self._values:
            if is_missing(v):
                values.append(NA)
            else:
                total += v
                values.append(total)
        return self._with_values(values)

    def cummax(self) -> "Series":
        values, best = [], None
        for v in self._values:
            if is_missing(v):
                values.append(NA)
            else:
                best = v if best is None else max(best, v)
                values.append(best)
        return self._with_values(values)

    def cummin(self) -> "Series":
        values, best = [], None
        for v in self._values:
            if is_missing(v):
                values.append(NA)
            else:
                best = v if best is None else min(best, v)
                values.append(best)
        return self._with_values(values)

    def rank(self, ascending: bool = True, method: str = "average") -> "Series":
        """Rank values (1-based); ties share the average rank by default."""
        if method not in ("average", "min", "first"):
            raise ValueError(f"unsupported rank method: {method!r}")
        present = [
            (v, pos) for pos, v in enumerate(self._values) if not is_missing(v)
        ]
        present.sort(key=lambda pair: pair[0], reverse=not ascending)
        ranks: List[Any] = [NA] * len(self._values)
        i = 0
        while i < len(present):
            j = i
            while j + 1 < len(present) and present[j + 1][0] == present[i][0]:
                j += 1
            if method == "average":
                value = (i + j) / 2 + 1
            elif method == "min":
                value = i + 1
            else:  # first: order of appearance within the tie
                value = None
            for offset, (_, pos) in enumerate(present[i : j + 1]):
                ranks[pos] = (i + offset + 1) if method == "first" else value
            i = j + 1
        return self._with_values(ranks)

    def ffill(self) -> "Series":
        if not any(is_missing(v) for v in self._values):
            return self._share()
        values, last = [], NA
        for v in self._values:
            if is_missing(v):
                values.append(last)
            else:
                last = v
                values.append(v)
        return self._with_values(values)

    def bfill(self) -> "Series":
        if not any(is_missing(v) for v in self._values):
            return self._share()
        values: List[Any] = []
        upcoming = NA
        for v in reversed(self._values):
            if is_missing(v):
                values.append(upcoming)
            else:
                upcoming = v
                values.append(v)
        values.reverse()
        return self._with_values(values)

    def interpolate(self) -> "Series":
        """Linear interpolation between the nearest present neighbours.

        Leading/trailing gaps are left missing, matching pandas'
        ``limit_direction='forward'``-free default for interior gaps.
        """
        values = list(self._values)
        present = [pos for pos, v in enumerate(values) if not is_missing(v)]
        for left, right in zip(present, present[1:]):
            gap = right - left
            if gap <= 1:
                continue
            lo, hi = float(values[left]), float(values[right])
            for step in range(1, gap):
                values[left + step] = lo + (hi - lo) * step / gap
        return self._with_values(values)

    def where(self, condition: "Series", other: Any = NA) -> "Series":
        """Keep values where *condition* holds; replace the rest with *other*."""
        condition_by_label = dict(zip(condition.index, condition))
        values = [
            v if condition_by_label.get(label, False) else (
                other[label] if isinstance(other, Series) and label in other.index
                else other
            )
            for label, v in zip(self._index, self._values)
        ]
        return self._with_values(values, coerce=True)

    def mask(self, condition: "Series", other: Any = NA) -> "Series":
        """Replace values where *condition* holds (inverse of where)."""
        return self.where(~condition, other)

    def combine_first(self, other: "Series") -> "Series":
        """Fill this Series' missing values from *other* (label-aligned)."""
        other_by_label = dict(zip(other.index, other))
        values = [
            other_by_label.get(label, v) if is_missing(v) else v
            for label, v in zip(self._index, self._values)
        ]
        return self._with_values(values)

    def to_frame(self, name: Optional[str] = None):
        from .frame import DataFrame

        column = name if name is not None else (self.name or 0)
        return DataFrame(
            {column: list(self._values)}, index=self._index.tolist()
        )

    def rolling(self, window: int, min_periods: Optional[int] = None):
        from .rolling import Rolling

        return Rolling(self, window, min_periods=min_periods)

    def nlargest(self, n: int = 5) -> "Series":
        return self.sort_values(ascending=False).head(n)

    def nsmallest(self, n: int = 5) -> "Series":
        return self.sort_values(ascending=True).head(n)

    # ------------------------------------------------------------ str accessor
    @property
    def str(self):
        from .strings import StringAccessor

        return StringAccessor(self)

    @property
    def dt(self):
        from .datetimes import DatetimeAccessor

        return DatetimeAccessor(self)

    # --------------------------------------------------------------- utilities
    def rename(self, name: str) -> "Series":
        out = self.copy()
        out.name = name
        return out

    def corr(self, other: "Series") -> float:
        pairs = []
        other_by_label = dict(zip(other.index, other._values))
        for label, v in zip(self._index, self._values):
            rhs = other_by_label.get(label, NA)
            if not is_missing(v) and not is_missing(rhs):
                pairs.append((float(v), float(rhs)))
        if len(pairs) < 2:
            return NA
        xs = np.array([p[0] for p in pairs])
        ys = np.array([p[1] for p in pairs])
        if xs.std() == 0 or ys.std() == 0:
            return NA
        return float(np.corrcoef(xs, ys)[0, 1])


class _SeriesILoc:
    def __init__(self, series: Series):
        self._series = series

    def __getitem__(self, item):
        if isinstance(item, slice):
            return Series(
                self._series._values[item],
                index=self._series.index.tolist()[item],
                name=self._series.name,
            )
        if isinstance(item, (list, np.ndarray)):
            return self._series.take([int(i) for i in item])
        return self._series._values[int(item)]


class _SeriesLoc:
    def __init__(self, series: Series):
        self._series = series

    def __getitem__(self, item):
        return self._series[item]

    def __setitem__(self, item, value):
        self._series[item] = value


def _safe_div(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0:
            return NA
        return math.inf if a > 0 else -math.inf


def _dtype_name(dtype) -> str:
    if dtype in (int, "int", "int64", "int32"):
        return "int64"
    if dtype in (float, "float", "float64", "float32"):
        return "float64"
    if dtype in (bool, "bool"):
        return "bool"
    if dtype in (str, "str", "object", "category"):
        return "object"
    raise TypeError(f"unsupported dtype: {dtype!r}")


def _cast_values(values: List[Any], dtype_name: str) -> List[Any]:
    name = _dtype_name(dtype_name)
    out = []
    for v in values:
        if is_missing(v):
            if name == "int64":
                raise ValueError("cannot convert NA to integer")
            out.append(NA if name == "float64" else (None if name == "object" else NA))
            continue
        if name == "int64":
            out.append(int(v))
        elif name == "float64":
            out.append(float(v))
        elif name == "bool":
            out.append(bool(v))
        else:
            out.append(str(v))
    return out
