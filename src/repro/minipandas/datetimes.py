"""Datetime parsing and the ``Series.dt`` accessor.

Supports the date shapes that appear in data-preparation scripts:
ISO dates/timestamps, ``YYYY/MM/DD``, and ``DD.MM.YYYY`` (the Predict
Future Sales competition's format).  Values are stored as
``datetime.datetime`` objects inside object-dtype Series.
"""

from __future__ import annotations

from datetime import datetime
from typing import Any, Callable, Dict, Optional

from ._missing import NA, is_missing
from .series import Series

__all__ = ["to_datetime", "DatetimeAccessor"]

#: The formats tried in order, each with the literal separators it needs:
#: ``strptime`` matches literals literally, so a string lacking one of
#: them cannot parse and the format is skipped without a call.
_FORMATS = tuple(
    (fmt, frozenset(sep for sep in "-/.:" if sep in fmt))
    for fmt in (
        "%Y-%m-%d",
        "%Y-%m-%d %H:%M:%S",
        "%Y/%m/%d",
        "%d.%m.%Y",
        "%m/%d/%Y",
        "%d-%m-%Y",
    )
)


def _parse_text(text: str, fmt: Optional[str]) -> Optional[datetime]:
    """The datetime stripped *text* spells (under *fmt* when given), or
    None when it spells none."""
    for candidate, separators in ((fmt, ()),) if fmt is not None else _FORMATS:
        if all(sep in text for sep in separators):
            try:
                return datetime.strptime(text, candidate)
            except ValueError:
                continue
    return None


def to_datetime(
    data,
    errors: str = "raise",
    format: Optional[str] = None,
) -> Series:
    """Convert a Series (or iterable) of date strings to datetimes.

    ``errors='coerce'`` maps unparseable values to NaN, as in pandas;
    otherwise the first unparseable cell in row order raises.  Each
    distinct stripped string is parsed once per call.
    """
    if not isinstance(data, Series):
        data = Series(list(data))
    parsed: Dict[str, Optional[datetime]] = {}
    values = []
    for value in data:
        if is_missing(value):
            values.append(NA)
            continue
        if isinstance(value, datetime):
            values.append(value)
            continue
        text = str(value).strip()
        if text not in parsed:
            parsed[text] = _parse_text(text, format)
        stamp = parsed[text]
        if stamp is None and errors != "coerce":
            if format is not None:
                datetime.strptime(text, format)  # raises strptime's own error
            raise ValueError(f"unable to parse {value!r} as a datetime")
        values.append(NA if stamp is None else stamp)
    return data._with_values(values)


class DatetimeAccessor:
    """Vectorized datetime properties reached through ``series.dt``."""

    def __init__(self, series: Series):
        self._series = series

    def _map(self, func: Callable[[datetime], Any]) -> Series:
        values = []
        for value in self._series:
            if is_missing(value):
                values.append(NA)
            elif isinstance(value, datetime):
                values.append(func(value))
            else:
                raise AttributeError(
                    "Can only use .dt accessor with datetime values; "
                    f"got {type(value).__name__} (apply pd.to_datetime first)"
                )
        return Series(values, index=self._series.index.tolist(), name=self._series.name)

    @property
    def year(self) -> Series:
        return self._map(lambda d: d.year)

    @property
    def month(self) -> Series:
        return self._map(lambda d: d.month)

    @property
    def day(self) -> Series:
        return self._map(lambda d: d.day)

    @property
    def hour(self) -> Series:
        return self._map(lambda d: d.hour)

    @property
    def dayofweek(self) -> Series:
        return self._map(lambda d: d.weekday())

    @property
    def quarter(self) -> Series:
        return self._map(lambda d: (d.month - 1) // 3 + 1)

    @property
    def dayofyear(self) -> Series:
        return self._map(lambda d: d.timetuple().tm_yday)

    def strftime(self, fmt: str) -> Series:
        return self._map(lambda d: d.strftime(fmt))
