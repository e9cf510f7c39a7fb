"""A one-dimensional labelled array mirroring the pandas ``Series`` API.

Values are stored as the column *payload*, in one of two forms decided by
the cells alone (:func:`_pack`): a read-only ``float64``/``int64``/``bool``
ndarray when every cell is an exact Python float, an exact int inside
int64, or an exact bool; otherwise a plain Python list.  A float array's
missing cells are its NaNs; an int or bool column has none.  Payloads are
treated as immutable and structurally shared: ``copy()``, untouched-column
passthrough in DataFrame ops, and sandbox snapshots all reference the same
payload, and the few in-place mutation entry points (``__setitem__``,
``loc`` assignment) write into a private copy (:meth:`Series._write`).

The hot ops run typed kernels on array payloads where numpy computes
exactly the cells the list loop would; every other case, and every list
payload, runs the list loop, which stays the reference.  No numpy scalar
leaves a Series: accessors and reductions return Python scalars.
"""

from __future__ import annotations

import math
from types import NoneType
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from . import kernels
from ._missing import NA, float64_array, is_missing, missing_mask
from .index import Index, RangeIndex

__all__ = ["Series"]

_UNSET = object()


#: Cell types whose presence alone decides the dtype (exact types only:
#: subclasses such as ``IntEnum`` and numpy scalars take the scan).
_PLAIN_TYPES = frozenset({bool, int, float, str, NoneType})

#: The payload array dtype of each exact cell type that has one.
_ARRAY_DTYPES = {float: np.float64, int: np.int64, bool: np.bool_}
_ARRAY_TYPES = frozenset(_ARRAY_DTYPES.values())

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1

#: Ints up to this magnitude convert to float64 exactly, so numpy's mixed
#: int/float arithmetic and comparisons agree with Python's there.
_EXACT_INT = 2**53


def _pack(cells):
    """The payload form of *cells* (a list or a fresh typed array).

    Typed iff the cells are non-empty and all of one exact type — float,
    int within int64, or bool; the array is made read-only.  Mixed types,
    ``None``, numpy scalars, subclasses, big ints and empty columns stay a
    list (an empty int64 array would read dtype ``int64`` where ``[]``
    reads ``float64``).
    """
    if isinstance(cells, np.ndarray):
        if cells.dtype.type not in _ARRAY_TYPES:
            return _pack(cells.tolist())
        if not cells.size:
            return []
        cells.flags.writeable = False
        return cells
    types = set(map(type, cells))
    if len(types) != 1:
        return cells
    dtype = _ARRAY_DTYPES.get(types.pop())
    if dtype is None:
        return cells
    try:
        array = np.array(cells, dtype=dtype)
    except OverflowError:  # an int beyond int64
        return cells
    array.flags.writeable = False
    return array


def _int_range(operand):
    """(min, max) of an int64 array or an int scalar, as Python ints."""
    if isinstance(operand, np.ndarray):
        return int(operand.min()), int(operand.max())
    return operand, operand


def _exact_operands(lhs, rhs, op=None) -> bool:
    """Whether numpy combines *lhs* and *rhs* exactly as Python would.

    Each operand is a non-bool typed array or an exact int/float scalar.
    Two floats always are; an int beside a float only up to 2**53 in
    magnitude; two ints when the scalar fits int64 and no result of *op*
    (``+ - *``, extreme at the corners of both operands' ranges) can
    leave int64.
    """
    kinds = [
        o.dtype == np.int64 if isinstance(o, np.ndarray) else type(o) is int
        for o in (lhs, rhs)
    ]
    if not any(kinds):
        return True
    ranges = [_int_range(o) for o, is_int in zip((lhs, rhs), kinds) if is_int]
    if not all(kinds):
        lo, hi = ranges[0]
        return -_EXACT_INT <= lo and hi <= _EXACT_INT
    if op is not None:
        ranges.append([op(x, y) for x in ranges[0] for y in ranges[1]])
    return all(_INT64_MIN <= min(r) and max(r) <= _INT64_MAX for r in ranges)


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

    #: Copy-on-write marker: True when a list ``_payload`` may be
    #: referenced by another Series (class-level default so ``__new__``
    #: paths start unshared without an explicit assignment).  Typed
    #: payloads are read-only, so they are always safe to share.
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
            values = data._payload
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
        if shared_index is not None:
            self._index: Index = shared_index
        else:
            self._index = Index(index) if index is not None else RangeIndex(len(values))
        if len(self._index) != len(values):
            raise ValueError(
                f"index length {len(self._index)} does not match data length {len(values)}"
            )
        self.name = name
        if dtype is not None:
            if isinstance(values, np.ndarray):
                values = values.tolist()
            values = _cast_values(values, dtype)
        elif shared_payload:
            self._shared = True
        self._payload = values if shared_payload and dtype is None else _pack(values)

    def __setstate__(self, state) -> None:
        # pickle and deepcopy hand arrays back writeable: re-protect them
        self.__dict__.update(state)
        self._payload = _pack(self._payload)

    # ------------------------------------------------------------------ basics
    @property
    def values(self) -> np.ndarray:
        payload = self._payload
        if isinstance(payload, np.ndarray):
            return payload.copy()
        dtype = _infer_dtype(payload)
        if dtype == "float64":
            return float64_array(payload)
        if dtype == "int64":
            return np.array(payload, dtype=np.int64)
        if dtype == "bool":
            return np.array(payload, dtype=bool)
        return np.array(payload, dtype=object)

    @property
    def index(self) -> Index:
        return self._index

    @property
    def dtype(self) -> str:
        payload = self._payload
        if isinstance(payload, np.ndarray):
            return payload.dtype.name
        return _infer_dtype(payload)

    @property
    def shape(self) -> tuple:
        return (len(self._payload),)

    @property
    def empty(self) -> bool:
        return len(self._payload) == 0

    @property
    def size(self) -> int:
        return len(self._payload)

    def __len__(self) -> int:
        return len(self._payload)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.tolist())

    def __contains__(self, label: Any) -> bool:
        return label in self._index

    def __repr__(self) -> str:
        lines = [
            f"{label}\t{value!r}"
            for label, value in list(zip(self._index, self.tolist()))[:10]
        ]
        if len(self._payload) > 10:
            lines.append("...")
        lines.append(f"Name: {self.name}, Length: {len(self)}, dtype: {self.dtype}")
        return "\n".join(lines)

    def copy(self) -> "Series":
        return self._clone(self._index)

    def _clone(self, index: Index) -> "Series":
        """O(1) structural copy: shared payload, shared immutable index.

        Both the payload and the ``Index`` are shared by reference — the
        payload under copy-on-write (any in-place mutation on either side
        writes into a private copy first), the index because it is
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
        out._payload = self._payload
        out._shared = True
        out._index = self._index if index is None else index
        out.name = self.name if name is _UNSET else name
        return out

    def _materialize(self) -> List[Any]:
        """The payload as a privately owned list — copy-on-write barrier.

        A typed payload converts to a fresh list; a shared list is copied
        once and the flag cleared, so sharers never observe a write.
        """
        payload = self._payload
        if isinstance(payload, np.ndarray):
            self._payload = payload.tolist()
        elif self._shared:
            self._payload = list(payload)
        self._shared = False
        return self._payload

    def _write(self, positions: Iterable[int], values: Iterable[Any]) -> None:
        """Write *values* at *positions* into a private copy of the payload.

        Every in-place mutation entry point goes through here.  The copy
        re-packs afterwards, so a typed column stays typed only while every
        written value has its exact cell type.
        """
        cells = self._materialize()
        for pos, value in zip(positions, values):
            cells[pos] = value
        self._payload = _pack(cells)

    @classmethod
    def _from_payload(cls, values, index: Index, name) -> "Series":
        """Internal fast constructor: adopt *values* (already coerced: a
        list or a fresh typed array) and *index* (an Index object) without
        copying or re-validating."""
        out = cls.__new__(cls)
        out._payload = _pack(values)
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

    def _with_values(self, values, coerce: bool = False) -> "Series":
        """Derive a Series with new *values* (a list, or a fresh typed
        array from a kernel) but this Series' labels.

        ``Index`` is immutable, so the derived Series shares ``self._index``
        directly instead of paying ``tolist()`` + ``Index(...)`` (a full
        label-list copy and position-map rebuild) on every elementwise op.
        ``coerce`` applies the constructor's numpy-scalar normalization and
        is only needed when *values* may contain caller-supplied objects.
        """
        if coerce and any(issubclass(t, np.generic) for t in set(map(type, values))):
            values = [_coerce_scalar(v) for v in values]
        return Series._from_payload(values, self._index, self.name)

    def tolist(self) -> List[Any]:
        payload = self._payload
        return payload.tolist() if isinstance(payload, np.ndarray) else list(payload)

    def to_list(self) -> List[Any]:
        return self.tolist()

    def _cell(self, pos: int) -> Any:
        payload = self._payload
        return payload.item(pos) if isinstance(payload, np.ndarray) else payload[pos]

    def _missing(self) -> np.ndarray:
        """``is_missing`` of every cell, as a bool array."""
        return missing_mask(self._payload)

    def _aligned(self, other: "Series") -> bool:
        """Whether *other*'s cells align with this Series' positionally
        under label alignment: the same labels in order, all unique."""
        mine, theirs = self._index, other._index
        return (mine is theirs or mine._labels == theirs._labels) and mine.is_unique()

    def item(self) -> Any:
        if len(self._payload) != 1:
            raise ValueError("can only convert a length-1 Series to a scalar")
        return self._cell(0)

    # --------------------------------------------------------------- indexing
    def __getitem__(self, key):
        if isinstance(key, Series) and key.dtype == "bool":
            return self._filter_mask(key)
        if isinstance(key, (list, np.ndarray)) and len(key) and isinstance(key[0], (bool, np.bool_)):
            return self._filter_mask(self._with_values([bool(f) for f in key]))
        if isinstance(key, slice):
            return Series(
                self.tolist()[key], index=self._index.tolist()[key], name=self.name
            )
        if isinstance(key, tuple) and key in self._index:
            return self._cell(self._index.get_loc(key))
        if isinstance(key, (list, tuple)):
            positions = self._index.positions_for(key)
            return self.take(positions)
        return self._cell(self._index.get_loc(key))

    def __setitem__(self, key, value) -> None:
        if isinstance(key, Series) and key.dtype == "bool":
            positions = [
                self._index.get_loc(label)
                for label, flag in zip(key.index, key)
                if flag
            ]
        else:
            positions = [self._index.get_loc(key)]
        self._write(positions, [value] * len(positions))

    def _filter_mask(self, mask: "Series") -> "Series":
        if mask._index is self._index and self._index.is_unique():
            # the mask was derived from this Series (comparisons share the
            # index object), so flags align positionally — skip the
            # label-alignment dict entirely
            return self.take(mask._true_positions())
        mask_by_label = dict(zip(mask.index, mask))
        values, labels = [], []
        for label, value in zip(self._index, self):
            if mask_by_label.get(label, False):
                values.append(value)
                labels.append(label)
        return Series(values, index=labels, name=self.name)

    def _true_positions(self) -> List[int]:
        """Positions of the truthy cells of this (mask) Series."""
        payload = self._payload
        if isinstance(payload, np.ndarray) and payload.dtype == np.bool_:
            return np.flatnonzero(payload).tolist()
        return [pos for pos, flag in enumerate(self.tolist()) if flag]

    def take(self, positions: Sequence[int]) -> "Series":
        positions = list(positions)
        return Series._from_payload(
            _gather(self._payload, positions),
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
        return self._share(index=RangeIndex(len(self._payload)))

    # ------------------------------------------------------- elementwise math
    def _binary_op(self, other: Any, op: Callable[[Any, Any], Any], propagate_na: bool = True) -> "Series":
        """The list loop: *other* label-aligned (NA where a label is
        absent); with *propagate_na*, NA where either cell is missing."""
        if isinstance(other, Series):
            if self._aligned(other):
                rhs = other.tolist()
            else:
                other_by_label = dict(zip(other.index, other))
                rhs = [other_by_label.get(label, NA) for label in self._index]
        else:
            rhs = [other] * len(self)
        if propagate_na:
            gaps = self._missing()
            if isinstance(other, Series):
                gaps |= missing_mask(rhs)
        else:
            gaps = np.zeros(len(self), dtype=bool)
        values = [
            NA if gap else op(value, operand)
            for value, operand, gap in zip(self.tolist(), rhs, gaps.tolist())
        ]
        return self._with_values(values, coerce=True)

    def _typed_operand(self, other: Any, allow_bool: bool):
        """(this payload, *other* as an aligned array or exact scalar) when
        both suit a typed kernel, else None.

        Bool payloads and bool scalars take part only with *allow_bool*,
        and then only with each other (Python folds bools into ints).
        """
        payload = self._payload
        if not isinstance(payload, np.ndarray):
            return None
        if isinstance(other, Series):
            rhs = other._payload
            if not isinstance(rhs, np.ndarray) or not self._aligned(other):
                return None
            rhs_bool = rhs.dtype == np.bool_
        elif type(other) in (int, float, bool):
            rhs = other
            rhs_bool = type(other) is bool
        else:
            return None
        lhs_bool = payload.dtype == np.bool_
        if lhs_bool != rhs_bool or (lhs_bool and not allow_bool):
            return None
        return payload, rhs

    def _arith(self, other: Any, op: Callable[[Any, Any], Any], ufunc, reflected: bool = False) -> "Series":
        """``+ - *`` (reflected: *other* on the left): numpy on typed
        operands when no result can differ from the list loop's, which
        runs otherwise.  A missing cell yields the canonical ``NA``."""
        operands = self._typed_operand(other, allow_bool=False)
        if operands is not None and _exact_operands(*operands, op):
            with np.errstate(over="ignore", invalid="ignore"):  # Python floats stay silent
                out = ufunc(*operands[::-1]) if reflected else ufunc(*operands)
            if out.dtype == np.float64:
                missing = self._missing()
                if isinstance(other, Series):
                    missing |= other._missing()
                out[missing] = NA
            return self._with_values(out)
        return self._binary_op(other, op)

    def _typed_compare(self, other: Any, ufunc) -> Optional[np.ndarray]:
        """The comparison as a bool array when numpy decides every cell as
        Python would, else None.  A missing cell on either side, or a NaN
        operand, compares False — ``!=`` included."""
        operands = self._typed_operand(other, allow_bool=True)
        if operands is None or not _exact_operands(*operands):
            return None
        lhs, rhs = operands
        if isinstance(rhs, float) and math.isnan(rhs):
            return np.zeros(len(lhs), dtype=bool)
        out = ufunc(lhs, rhs)
        out[self._missing()] = False
        if isinstance(other, Series):
            out[other._missing()] = False
        return out

    def _compare(self, other: Any, op: Callable[[Any, Any], bool], ufunc) -> "Series":
        out = self._typed_compare(other, ufunc)
        if out is not None:
            return self._with_values(out)

        def safe(lhs, rhs):
            if is_missing(lhs) or is_missing(rhs):
                return False
            try:
                return bool(op(lhs, rhs))
            except TypeError:
                return False

        if isinstance(other, Series):
            other_by_label = dict(zip(other.index, other))
            values = [
                safe(value, other_by_label.get(label, NA))
                for label, value in zip(self._index, self)
            ]
        else:
            values = [safe(value, other) for value in self]
        return self._with_values(values)

    def __add__(self, other):
        return self._arith(other, lambda a, b: a + b, np.add)

    def __radd__(self, other):
        return self._arith(other, lambda a, b: b + a, np.add, reflected=True)

    def __sub__(self, other):
        return self._arith(other, lambda a, b: a - b, np.subtract)

    def __rsub__(self, other):
        return self._arith(other, lambda a, b: b - a, np.subtract, reflected=True)

    def __mul__(self, other):
        return self._arith(other, lambda a, b: a * b, np.multiply)

    def __rmul__(self, other):
        return self._arith(other, lambda a, b: b * a, np.multiply, reflected=True)

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
        return self._compare(other, lambda a, b: a == b, np.equal)

    def __ne__(self, other):  # type: ignore[override]
        return self._compare(other, lambda a, b: a != b, np.not_equal)

    def __lt__(self, other):
        return self._compare(other, lambda a, b: a < b, np.less)

    def __le__(self, other):
        return self._compare(other, lambda a, b: a <= b, np.less_equal)

    def __gt__(self, other):
        return self._compare(other, lambda a, b: a > b, np.greater)

    def __ge__(self, other):
        return self._compare(other, lambda a, b: a >= b, np.greater_equal)

    __hash__ = None  # type: ignore[assignment]

    def __and__(self, other):
        return self._binary_op(other, lambda a, b: bool(a) and bool(b), propagate_na=False)

    def __or__(self, other):
        return self._binary_op(other, lambda a, b: bool(a) or bool(b), propagate_na=False)

    def __xor__(self, other):
        return self._binary_op(other, lambda a, b: bool(a) != bool(b), propagate_na=False)

    def __invert__(self):
        payload = self._payload
        if isinstance(payload, np.ndarray):
            # ``not bool(v)``, and True for a missing cell
            if payload.dtype == np.bool_:
                return self._with_values(~payload)
            return self._with_values((payload == 0) | self._missing())
        return self._with_values(
            [not bool(v) if not is_missing(v) else True for v in payload]
        )

    def __bool__(self):
        raise ValueError(
            "The truth value of a Series is ambiguous. Use s.any() or s.all()."
        )

    # ----------------------------------------------------------- missing data
    def isnull(self) -> "Series":
        return self._with_values(self._missing())

    isna = isnull

    def notnull(self) -> "Series":
        return ~self.isnull()

    notna = notnull

    def fillna(self, value: Any) -> "Series":
        gaps = self._missing()
        fill = _coerce_scalar(value)
        if isinstance(self._payload, np.ndarray) and type(fill) is float and gaps.any():
            # a typed payload with gaps is a float array, and stays one
            return self._with_values(np.where(gaps, fill, self._payload))
        positions = np.flatnonzero(gaps).tolist()
        if isinstance(value, Series):
            fill_by_label = dict(zip(value.index, value))
            labels = self._index
            fills = [
                (pos, _coerce_scalar(fill_by_label[labels[pos]]))
                for pos in positions
                if labels[pos] in fill_by_label
            ]
        else:
            fills = [(pos, fill) for pos in positions]
        if not fills:
            # nothing filled: pass the payload through untouched
            return self._share()
        out = self.tolist()
        for pos, fill in fills:
            out[pos] = fill
        return self._with_values(out)

    def dropna(self) -> "Series":
        return self.take(np.flatnonzero(~self._missing()).tolist())

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
        values = [False if is_missing(v) else bool(op(v)) for v in self]
        return self._with_values(values)

    def isin(self, collection: Iterable[Any]) -> "Series":
        lookup = set(collection)
        values = [
            False if is_missing(v) else v in lookup for v in self
        ]
        return self._with_values(values)

    def any(self) -> bool:
        return any(bool(v) for v in self if not is_missing(v))

    def all(self) -> bool:
        return all(bool(v) for v in self if not is_missing(v))

    def duplicated(self) -> "Series":
        seen = set()
        flags = []
        for v in self:
            # unique object sentinel: a genuine ("__na__",) cell can never
            # collide with NA; unhashable cells fall back to a repr key
            key = kernels.na_key(v)
            flags.append(key in seen)
            seen.add(key)
        return self._with_values(flags)

    # ------------------------------------------------------------ conversions
    def astype(self, dtype) -> "Series":
        name = _dtype_name(dtype)
        payload = self._payload
        if isinstance(payload, np.ndarray):
            cast = _cast_array(payload, name)
            if cast is not None:
                return self._with_values(cast)
        return self._with_values(_cast_values(self.tolist(), name))

    def map(self, mapper) -> "Series":
        gaps = self._missing().tolist()
        if isinstance(mapper, dict):
            get = mapper.get
            values = [NA if gap else get(v, NA) for v, gap in zip(self.tolist(), gaps)]
        else:
            values = [NA if gap else mapper(v) for v, gap in zip(self.tolist(), gaps)]
        return self._with_values(values, coerce=True)

    def apply(self, func: Callable[[Any], Any]) -> "Series":
        return self._with_values([func(v) for v in self], coerce=True)

    def replace(self, to_replace, value=None) -> "Series":
        if isinstance(to_replace, dict):
            mapping = to_replace
            values = [
                mapping.get(v, v) if not is_missing(v) else v for v in self
            ]
        else:
            targets = (
                set(to_replace) if isinstance(to_replace, (list, tuple, set)) else {to_replace}
            )
            values = [
                value if (not is_missing(v) and v in targets) else v
                for v in self
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

        return self._with_values([clip_one(v) for v in self], coerce=True)

    def abs(self) -> "Series":
        return self._with_values(
            [v if is_missing(v) else abs(v) for v in self]
        )

    def round(self, decimals: int = 0) -> "Series":
        return self._with_values(
            [v if is_missing(v) else round(v, decimals) for v in self]
        )

    # ------------------------------------------------------------- reductions
    def _numeric(self) -> np.ndarray:
        """The present numeric cells (bools as 0/1) as a float64 array."""
        payload = self._payload
        if isinstance(payload, np.ndarray):
            if payload.dtype == np.float64:
                return payload[~np.isnan(payload)]
            return payload.astype(np.float64)
        return np.array(
            [
                float(v)
                for v in payload
                if isinstance(v, (int, float)) and not is_missing(v)
            ],
            dtype=np.float64,
        )

    def count(self) -> int:
        return len(self) - int(np.count_nonzero(self._missing()))

    def sum(self):
        nums = self._numeric()
        return float(np.sum(nums)) if len(nums) else 0.0

    def mean(self):
        nums = self._numeric()
        return float(np.mean(nums)) if len(nums) else NA

    def median(self):
        nums = self._numeric()
        return float(np.median(nums)) if len(nums) else NA

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
        present = [v for v in self if not is_missing(v)]
        return min(present) if present else NA

    def max(self):
        present = [v for v in self if not is_missing(v)]
        return max(present) if present else NA

    def quantile(self, q: float = 0.5):
        nums = self._numeric()
        return float(np.quantile(nums, q)) if len(nums) else NA

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
        for v in self:
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
        for label, v in zip(self._index, self):
            if is_missing(v):
                continue
            if best_value is None or v > best_value:
                best_label, best_value = label, v
        if best_label is None:
            raise ValueError("attempt to get idxmax of an all-NA Series")
        return best_label

    def idxmin(self):
        best_label, best_value = None, None
        for label, v in zip(self._index, self):
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
        for v in self:
            if is_missing(v):
                has_na = True
            else:
                seen.add(v)
        return len(seen) + (0 if dropna else int(has_na))

    def unique(self) -> List[Any]:
        seen = set()
        out = []
        for v in self:
            key = kernels.na_key(v)
            if key not in seen:
                seen.add(key)
                out.append(v)
        return out

    def value_counts(self, normalize: bool = False, dropna: bool = True) -> "Series":
        counts: Dict[Any, int] = {}
        for v in self:
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

        pairs = sorted(zip(self._index, self), key=sort_key, reverse=not ascending)
        if not ascending:
            # keep missing values last regardless of direction
            pairs = [p for p in pairs if not is_missing(p[1])] + [
                p for p in pairs if is_missing(p[1])
            ]
        return Series(
            [v for _, v in pairs], index=[label for label, _ in pairs], name=self.name
        )

    def sort_index(self) -> "Series":
        pairs = sorted(zip(self._index, self), key=lambda p: repr(p[0]))
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
        cells = self.tolist()
        n = len(cells)
        if periods >= 0:
            values = [NA] * min(periods, n) + cells[: max(n - periods, 0)]
        else:
            k = min(-periods, n)
            values = cells[k:] + [NA] * k
        return self._with_values(values)

    def diff(self, periods: int = 1) -> "Series":
        shifted = self.shift(periods)
        return self - shifted

    def pct_change(self, periods: int = 1) -> "Series":
        previous = self.shift(periods)
        return (self - previous) / previous

    def cumsum(self) -> "Series":
        values, total = [], 0.0
        for v in self:
            if is_missing(v):
                values.append(NA)
            else:
                total += v
                values.append(total)
        return self._with_values(values)

    def cummax(self) -> "Series":
        values, best = [], None
        for v in self:
            if is_missing(v):
                values.append(NA)
            else:
                best = v if best is None else max(best, v)
                values.append(best)
        return self._with_values(values)

    def cummin(self) -> "Series":
        values, best = [], None
        for v in self:
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
            (v, pos) for pos, v in enumerate(self) if not is_missing(v)
        ]
        present.sort(key=lambda pair: pair[0], reverse=not ascending)
        ranks: List[Any] = [NA] * len(self)
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
        if not self._missing().any():
            return self._share()
        values, last = [], NA
        for v in self:
            if is_missing(v):
                values.append(last)
            else:
                last = v
                values.append(v)
        return self._with_values(values)

    def bfill(self) -> "Series":
        if not self._missing().any():
            return self._share()
        values: List[Any] = []
        upcoming = NA
        for v in reversed(self.tolist()):
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
        values = self.tolist()
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
            for label, v in zip(self._index, self)
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
            for label, v in zip(self._index, self)
        ]
        return self._with_values(values)

    def to_frame(self, name: Optional[str] = None):
        from .frame import DataFrame

        column = name if name is not None else (self.name or 0)
        return DataFrame(
            {column: self.tolist()}, index=self._index.tolist()
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
        other_by_label = dict(zip(other.index, other))
        for label, v in zip(self._index, self):
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
                self._series.tolist()[item],
                index=self._series.index.tolist()[item],
                name=self._series.name,
            )
        if isinstance(item, (list, np.ndarray)):
            return self._series.take([int(i) for i in item])
        return self._series._cell(int(item))


class _SeriesLoc:
    def __init__(self, series: Series):
        self._series = series

    def __getitem__(self, item):
        return self._series[item]

    def __setitem__(self, item, value):
        self._series[item] = value


def _gather(payload, positions: List[int], taken: Optional[np.ndarray] = None):
    """The cells of *payload* at *positions* (*taken*: the same positions
    as an intp array, when the caller has it), in the payload's form."""
    if isinstance(payload, np.ndarray):
        return payload.take(np.asarray(positions, dtype=np.intp) if taken is None else taken)
    return [payload[pos] for pos in positions]


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


def _cast_array(payload: np.ndarray, name: str) -> Optional[np.ndarray]:
    """:func:`_cast_values` of a typed payload as one numpy cast, or None
    where only the list loop is exact: to ``object``, and a float column
    holding NaN, ±inf or values past int64 into int or bool (the loop
    raises, or leaves NA beside bools)."""
    if name == "object":
        return None
    if payload.dtype == np.float64:
        if name == "float64":
            out = payload.copy()
            out[np.isnan(out)] = NA
            return out
        if not (np.abs(payload) < 2.0**63).all():
            return None
    if name == "bool":
        return payload != 0
    return payload.astype(_ARRAY_DTYPES[int] if name == "int64" else np.float64)


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
