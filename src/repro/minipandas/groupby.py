"""Grouped aggregation and transformation (``DataFrame.groupby``)."""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

from . import kernels
from ._missing import NA, is_missing
from .frame import DataFrame
from .series import Series

__all__ = ["GroupBy", "SeriesGroupBy"]

_AGG_NAMES = ("mean", "median", "sum", "min", "max", "count", "std", "var", "nunique")


def _naive():
    from . import _naive as module

    return module


class GroupBy:
    """A lazily grouped view of a DataFrame keyed by one or more columns."""

    def __init__(self, frame: DataFrame, by: Union[str, Sequence[str]]):
        self._frame = frame
        self._by: List[str] = [by] if isinstance(by, str) else list(by)
        for col in self._by:
            if col not in frame.columns:
                raise KeyError(f"grouping column {col!r} not found")
        self._groups = self._build_groups()

    def _build_groups(self) -> Dict[Any, List[int]]:
        groups: Dict[Any, List[int]] = {}
        payloads = [self._frame._data[c].tolist() for c in self._by]
        if len(payloads) == 1:
            # single key: skip the per-row tuple entirely
            for pos, v in enumerate(payloads[0]):
                if is_missing(v):
                    continue  # pandas drops NA group keys by default
                groups.setdefault(v, []).append(pos)
        else:
            for pos, raw in enumerate(zip(*payloads)):
                if any(is_missing(v) for v in raw):
                    continue
                groups.setdefault(raw, []).append(pos)
        return groups

    # -- accessors ------------------------------------------------------------
    def __getitem__(self, col: Union[str, List[str]]) -> "SeriesGroupBy":
        if isinstance(col, list):
            if len(col) != 1:
                raise NotImplementedError("multi-column group selection is unsupported")
            col = col[0]
        if col not in self._frame.columns:
            raise KeyError(f"column {col!r} not found")
        return SeriesGroupBy(self._frame, self._groups, col, by=self._by)

    @property
    def groups(self) -> Dict[Any, List[int]]:
        return {k: list(v) for k, v in self._groups.items()}

    def size(self) -> Series:
        keys = sorted(self._groups.keys(), key=repr)
        return Series([len(self._groups[k]) for k in keys], index=keys)

    def ngroups(self) -> int:
        return len(self._groups)

    # -- aggregation ------------------------------------------------------------
    def _value_columns(self) -> List[str]:
        numeric = ("int64", "float64", "bool")
        return [
            c
            for c in self._frame.columns
            if c not in self._by and self._frame[c].dtype in numeric
        ]

    def agg(self, spec) -> DataFrame:
        """Aggregate with a name ('mean'), or a {column: name} mapping."""
        keys = sorted(self._groups.keys(), key=repr)
        if isinstance(spec, str):
            spec = {c: spec for c in self._value_columns()}
        data: Dict[str, List[Any]] = {}
        for col, func_name in spec.items():
            if func_name not in _AGG_NAMES:
                raise ValueError(f"unsupported aggregation: {func_name!r}")
            column = self._frame[col]
            data[col] = [
                getattr(column.take(self._groups[k]), func_name)() for k in keys
            ]
        out = DataFrame(data, index=keys)
        if kernels._AUDIT:
            kernels.audit(
                "groupby.agg",
                out,
                lambda: _naive().groupby_agg_frame(self._frame, self._by, spec),
            )
        return out

    def mean(self) -> DataFrame:
        return self.agg("mean")

    def median(self) -> DataFrame:
        return self.agg("median")

    def sum(self) -> DataFrame:
        return self.agg("sum")

    def min(self) -> DataFrame:
        return self.agg("min")

    def max(self) -> DataFrame:
        return self.agg("max")

    def count(self) -> DataFrame:
        return self.agg("count")

    def std(self) -> DataFrame:
        return self.agg("std")


class SeriesGroupBy:
    """A single grouped column (``df.groupby(key)[col]``)."""

    def __init__(
        self,
        frame: DataFrame,
        groups: Dict[Any, List[int]],
        col: str,
        by: Optional[List[str]] = None,
    ):
        self._frame = frame
        self._groups = groups
        self._col = col
        self._by = by

    def _agg(self, func_name: str) -> Series:
        keys = sorted(self._groups.keys(), key=repr)
        column = self._frame[self._col]
        values = [getattr(column.take(self._groups[k]), func_name)() for k in keys]
        out = Series(values, index=keys, name=self._col)
        if kernels._AUDIT and self._by is not None:
            kernels.audit(
                "groupby.agg",
                out,
                lambda: _naive().groupby_agg_series(
                    self._frame, self._by, self._col, func_name
                ),
            )
        return out

    def mean(self) -> Series:
        return self._agg("mean")

    def median(self) -> Series:
        return self._agg("median")

    def sum(self) -> Series:
        return self._agg("sum")

    def min(self) -> Series:
        return self._agg("min")

    def max(self) -> Series:
        return self._agg("max")

    def count(self) -> Series:
        return self._agg("count")

    def std(self) -> Series:
        return self._agg("std")

    def nunique(self) -> Series:
        return self._agg("nunique")

    def agg(self, func_name: str) -> Series:
        if func_name not in _AGG_NAMES:
            raise ValueError(f"unsupported aggregation: {func_name!r}")
        return self._agg(func_name)

    def transform(self, func_name: str) -> Series:
        """Broadcast a per-group aggregate back to the original row order."""
        if func_name not in _AGG_NAMES:
            raise ValueError(f"unsupported transform: {func_name!r}")
        column = self._frame[self._col]
        per_group = {
            key: getattr(column.take(positions), func_name)()
            for key, positions in self._groups.items()
        }
        values: List[Any] = [NA] * len(self._frame)
        for key, positions in self._groups.items():
            for pos in positions:
                values[pos] = per_group[key]
        return Series(values, index=self._frame.index.tolist(), name=self._col)
