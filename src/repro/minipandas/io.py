"""CSV reading and writing for the minipandas substrate.

``read_csv`` performs per-column type inference that matches the pandas
behaviour the corpus scripts rely on: integer columns stay integers unless
they contain missing values (then they become float64 with NaN), and
anything that fails numeric parsing becomes an object column.
"""

from __future__ import annotations

import csv
import io as _io
from typing import Any, List, Optional, Sequence, Union

from ._missing import NA
from .frame import DataFrame

__all__ = ["read_csv", "write_csv"]

#: CSV fields treated as missing, mirroring pandas' default NA sentinels.
_NA_STRINGS = {"", "NA", "N/A", "NaN", "nan", "NULL", "null", "None", "#N/A"}


def read_csv(
    path_or_buffer: Union[str, _io.TextIOBase],
    usecols: Optional[Sequence[str]] = None,
    nrows: Optional[int] = None,
    index_col: Optional[Union[int, str]] = None,
) -> DataFrame:
    """Parse a CSV file (or readable buffer) into a DataFrame."""
    if isinstance(path_or_buffer, str):
        with open(path_or_buffer, "r", newline="") as handle:
            return _parse(handle, usecols, nrows, index_col)
    return _parse(path_or_buffer, usecols, nrows, index_col)


def _parse(handle, usecols, nrows, index_col) -> DataFrame:
    reader = csv.reader(handle)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("CSV source is empty") from None

    raw_columns: List[List[str]] = [[] for _ in header]
    for row_number, row in enumerate(reader):
        if nrows is not None and row_number >= nrows:
            break
        for pos in range(len(header)):
            raw_columns[pos].append(row[pos] if pos < len(row) else "")

    data = {
        name: _infer_column(values) for name, values in zip(header, raw_columns)
    }

    index = None
    if index_col is not None:
        index_name = header[index_col] if isinstance(index_col, int) else index_col
        index = data.pop(index_name)

    frame = DataFrame(data, index=index)
    if usecols is not None:
        frame = frame[list(usecols)]
    return frame


def _infer_column(raw: List[str]) -> List[Any]:
    """Convert raw CSV strings into int/float/bool/str values with NA markers."""
    parsed: List[Any] = []
    all_int = all_float = all_bool = True
    for field in raw:
        stripped = field.strip()
        if stripped in _NA_STRINGS:
            parsed.append(None)
            continue
        parsed.append(stripped)
        if stripped not in ("True", "False", "true", "false"):
            all_bool = False
        if not _looks_like_int(stripped):
            all_int = False
            if not _looks_like_float(stripped):
                all_float = False

    if all_bool and any(v is not None for v in parsed):
        return [
            None if v is None else v in ("True", "true") for v in parsed
        ]
    if all_int and any(v is not None for v in parsed):
        if any(v is None for v in parsed):
            return [NA if v is None else float(v) for v in parsed]
        return [int(v) for v in parsed]
    if all_float and any(v is not None for v in parsed):
        return [NA if v is None else float(v) for v in parsed]
    return parsed  # object column with None markers


def _looks_like_int(text: str) -> bool:
    if not text:
        return False
    body = text[1:] if text[0] in "+-" else text
    return body.isdigit()


def _looks_like_float(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


def write_csv(frame: DataFrame, path: str, index: bool = False) -> None:
    """Serialize *frame* to a CSV file."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        header = (["index"] if index else []) + frame.columns
        writer.writerow(header)
        # one pass per column: missing cells write as empty fields
        columns = [
            ["" if gap else v for v, gap in zip(series, series.isnull())]
            for series in (frame[col] for col in frame.columns)
        ]
        labels = frame.index.tolist()
        for pos in range(len(frame)):
            row = [labels[pos]] if index else []
            row.extend(column[pos] for column in columns)
            writer.writerow(row)
