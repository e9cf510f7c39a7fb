"""Dtype inference and float conversion agree with their per-value forms.

``_infer_dtype`` decides from the set of cell types and keeps
``_infer_dtype_scan`` (one ``is_missing`` and ``isinstance`` chain per
cell) as its fallback; the scan is the oracle here.  ``float64_array``
is checked against the per-value ``NA if is_missing(v) else float(v)``
on bytes.
"""

import datetime
import enum
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minipandas import NA, DataFrame, Series, is_missing
from repro.minipandas._missing import float64_array
from repro.minipandas.series import _infer_dtype, _infer_dtype_scan

from .test_properties import TEXT_ALPHABET


class Level(enum.IntEnum):
    LOW = 0
    HIGH = 1


class Label(str):
    pass


cell = st.one_of(
    st.booleans(),
    st.integers(-(2 ** 70), 2 ** 70),
    st.floats(allow_nan=True),
    st.just(NA),
    st.none(),
    st.text(TEXT_ALPHABET, max_size=3),
    st.builds(np.float64, st.floats(allow_nan=True)),
    st.builds(np.int64, st.integers(-(2 ** 63), 2 ** 63 - 1)),
    st.builds(np.bool_, st.booleans()),
    st.just(np.float32("nan")),
    st.sampled_from(list(Level)),
    st.builds(Label, st.text(TEXT_ALPHABET, max_size=2)),
    st.just(Decimal("NaN")),
    st.just(datetime.datetime(2024, 1, 1)),
    st.lists(st.integers(0, 3), max_size=2),
)

#: Cells of the plain types only, where the type-set decision applies.
plain_cell = st.one_of(
    st.booleans(),
    st.integers(-5, 5),
    st.floats(allow_nan=True),
    st.none(),
    st.sampled_from(["a", ""]),
)


class TestInferDtype:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(cell, max_size=8))
    def test_matches_per_value_scan(self, values):
        assert _infer_dtype(values) == _infer_dtype_scan(values)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(plain_cell, max_size=8))
    def test_matches_per_value_scan_on_plain_types(self, values):
        assert _infer_dtype(values) == _infer_dtype_scan(values)

    @pytest.mark.parametrize(
        "values, dtype",
        [
            ([True, NA], "object"),
            ([True, 1.5], "float64"),
            ([True, None], "object"),
            ([True, 1], "int64"),
            ([], "float64"),
            ([None, NA], "float64"),
            ([1, None], "float64"),
            ([1, 2], "int64"),
            ([True, False], "bool"),
            (["a", 1], "object"),
            ([True, NA, 2.0], "float64"),
            ([Level.HIGH, 2], "int64"),
            ([Decimal("NaN"), 1], "float64"),
            ([[1], 2], "object"),
        ],
    )
    def test_explicit_cases(self, values, dtype):
        assert _infer_dtype(values) == dtype
        assert _infer_dtype_scan(values) == dtype


def per_value(cells):
    return np.array([NA if is_missing(v) else float(v) for v in cells], dtype=np.float64)


class TestFloat64Array:
    @pytest.mark.parametrize(
        "cells",
        [
            [None, NA, 1, -0.0, 0.0, 2.5],
            [True, False, None, 3],
            [np.float64(1.5), np.int64(-7), np.bool_(True), np.float32("nan"), np.float32(0.1)],
            [2 ** 53 + 1, 2 ** 63 + 5, -(2 ** 63) - 5, 2 ** 100, -(2 ** 1000)],
            [],
        ],
    )
    def test_bytes_equal_per_value(self, cells):
        got = float64_array(cells)
        want = per_value(cells)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_nan_cells_stay_nan(self):
        negative_nan = float("inf") - float("inf")
        got = float64_array([NA, np.float32("nan"), None, negative_nan])
        assert all(math.isnan(v) for v in got)

    def test_past_float_range_raises_like_float(self):
        with pytest.raises(OverflowError):
            per_value([10 ** 400])
        with pytest.raises(OverflowError):
            float64_array([10 ** 400])

    def test_series_and_frame_values_use_it(self):
        frame = DataFrame({
            "a": [1, None, 3],
            "b": [True, False, True],
            "c": [-0.0, NA, 2 ** 64],
        })
        assert Series([1, None, 3]).values.tobytes() == per_value([1, None, 3]).tobytes()
        matrix = frame.values
        want = np.array([per_value(frame[c].tolist()) for c in frame.columns]).T
        assert matrix.shape == (3, 3) and matrix.tobytes() == want.tobytes()
