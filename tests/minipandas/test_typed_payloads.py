"""Typed column payloads: the numpy kernels against the list loops.

A column of only exact floats, ints within int64, or bools holds a
read-only typed array; any other column holds a list, and the list loops
stay the reference.  Each property below runs an op on a typed Series and
on a twin holding the same cells as a list payload (``list_twin``), and
requires the same cells by type and ``float.hex`` (NaN against NaN), the
same dtype, name, index and payload form.
"""

import copy
import math
import pickle
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.minipandas as pd
from repro.core.intent import TableJaccardIntent, table_fingerprint
from repro.minipandas import NA, DataFrame, Series
from repro.minipandas.series import _pack
from repro.sandbox import IncrementalExecutor

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1

edge_floats = st.sampled_from(
    [0.0, -0.0, NA, -NA, math.inf, -math.inf, 5e-324, -5e-324, 2.0**53, 1.5, -2.5, 1e308]
)
floats = st.one_of(st.floats(allow_nan=True, allow_infinity=True), edge_floats)
edge_ints = st.sampled_from(
    [0, 1, -1, 2**53 + 1, -(2**53 + 1), 2**53, INT64_MAX, INT64_MIN, 2**62, -(2**62), 3037000500]
)
ints = st.one_of(st.integers(min_value=INT64_MIN, max_value=INT64_MAX), edge_ints)
bools = st.booleans()

typed_cells = st.one_of(
    st.lists(floats, min_size=1, max_size=10),
    st.lists(ints, min_size=1, max_size=10),
    st.lists(bools, min_size=1, max_size=10),
)
scalars = st.one_of(
    floats,
    ints,
    bools,
    st.sampled_from([2**64, -(2**70), "a", "", None]),
)

ARITH = ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"]
COMPARE = ["__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__"]


def list_twin(series: Series) -> Series:
    """The same cells, labels and name, held as a list payload."""
    twin = series.copy()
    twin._payload = series.tolist()
    return twin


def cell_key(value):
    if type(value) is float:
        if math.isnan(value):
            return ("float", "nan", math.copysign(1.0, value))
        return ("float", value.hex())
    return (type(value).__name__, repr(value))


def assert_same(result, reference):
    if isinstance(reference, Series):
        assert isinstance(result, Series)
        assert [cell_key(v) for v in result.tolist()] == [
            cell_key(v) for v in reference.tolist()
        ]
        assert result.dtype == reference.dtype
        assert result.name == reference.name
        assert result.index.tolist() == reference.index.tolist()
        # the form follows the cells (the twin's own list payload may not)
        assert isinstance(result._payload, np.ndarray) == isinstance(
            _pack(result.tolist()), np.ndarray
        )
    else:
        assert cell_key(result) == cell_key(reference)


def outcome(func, *args):
    try:
        return func(*args), None
    except Exception as exc:  # noqa: BLE001 - the exception type is compared
        return None, type(exc)


def check(op, series, *args):
    typed, typed_error = outcome(op, series, *args)
    reference, reference_error = outcome(op, list_twin(series), *args)
    assert typed_error == reference_error
    if reference_error is None:
        assert_same(typed, reference)


def typed_series(cells, name="c"):
    series = Series(cells, index=[f"r{i}" for i in range(len(cells))], name=name)
    assert isinstance(series._payload, np.ndarray)
    return series


settings_ = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings_
@given(typed_cells, scalars, st.sampled_from(ARITH + COMPARE))
@example([2**53 + 1], 2.0**53, "__gt__")  # Python compares int and float exactly
@example([1.5, 2.5], NA, "__ne__")  # a NaN operand is a missing cell
@example([NA, 1.5], 1.5, "__ne__")  # so is a NaN cell, for != too
@example([-NA, 1.5], 1.0, "__add__")  # a missing cell yields the canonical NA
@example([INT64_MAX], 1, "__add__")  # int64 would wrap
def test_scalar_ops_match_the_list_loop(cells, scalar, op):
    check(lambda s, x: getattr(s, op)(x), typed_series(cells), scalar)


@settings_
@given(
    st.data(),
    typed_cells,
    st.sampled_from(ARITH[::2] + COMPARE),
    st.sampled_from(["same object", "equal labels", "reversed labels"]),
)
def test_series_ops_match_the_list_loop(data, cells, op, index_kind):
    left = typed_series(cells)
    other_cells = data.draw(
        st.one_of(
            st.lists(floats, min_size=len(cells), max_size=len(cells)),
            st.lists(ints, min_size=len(cells), max_size=len(cells)),
            st.lists(bools, min_size=len(cells), max_size=len(cells)),
        )
    )
    index = {
        "same object": left.index,
        "equal labels": left.index.tolist(),
        "reversed labels": left.index.tolist()[::-1],
    }[index_kind]
    right = Series(other_cells, index=index, name="o")

    def run(lhs):
        rhs = right if isinstance(lhs._payload, np.ndarray) else list_twin(right)
        return getattr(lhs, op)(rhs)

    check(run, left)


@settings_
@given(typed_cells, scalars)
def test_masks_fills_and_gathers_match_the_list_loop(cells, fill):
    series = typed_series(cells)
    check(lambda s: ~s, series)
    check(lambda s: s.isnull(), series)
    check(lambda s: s.notnull(), series)
    check(lambda s: s.count(), series)
    check(lambda s: s.dropna(), series)
    check(lambda s, v: s.fillna(v), series, fill)
    check(lambda s: s.take(list(range(len(s)))[::-2]), series)
    check(lambda s: s[s.notnull()], series)
    fills = Series([fill] * len(cells), index=series.index.tolist()[::-1])
    check(lambda s: s.fillna(fills), series)


@settings_
@given(typed_cells, st.sampled_from(["sum", "mean", "median", "std", "var", "quantile", "min", "max"]))
def test_reductions_match_the_list_loop(cells, name):
    check(lambda s: getattr(s, name)(), typed_series(cells))


@settings_
@given(typed_cells, st.sampled_from([int, float, bool, str]))
def test_astype_and_map_match_the_list_loop(cells, dtype):
    series = typed_series(cells)
    check(lambda s: s.astype(dtype), series)
    check(lambda s: s.map({cells[0]: "first", True: 7}), series)
    check(lambda s: s.map(lambda v: v), series)


@settings_
@given(st.lists(st.one_of(bools, st.sampled_from(["a", "b", None])), min_size=1, max_size=10), st.booleans())
def test_get_dummies_matches_list_payload_columns(cells, drop_first):
    frame = DataFrame({"k": cells, "n": [1.5] * len(cells)})
    twin = DataFrame({"k": list_twin(frame["k"]), "n": list_twin(frame["n"])})
    for dtype in (int, float, bool):
        typed = pd.get_dummies(frame, columns=["k"], drop_first=drop_first, dtype=dtype)
        reference = pd.get_dummies(twin, columns=["k"], drop_first=drop_first, dtype=dtype)
        assert typed.columns == reference.columns
        for col in typed.columns:
            assert_same(typed[col], reference[col])


class TestRepresentation:
    def test_exact_single_type_columns_are_typed(self):
        assert Series([1.5, NA])._payload.dtype == np.float64
        assert Series([1, 2])._payload.dtype == np.int64
        assert Series([True, False])._payload.dtype == np.bool_

    @pytest.mark.parametrize(
        "cells",
        [
            [],
            [1, 2.5],
            [1.5, None],
            [True, 1],
            [2**63, 1],
            ["a"],
            [IntEnum("E", "A").A],
        ],
        ids=["empty", "mixed", "none", "bool-int", "big-int", "str", "subclass"],
    )
    def test_other_columns_stay_lists(self, cells):
        assert type(Series(cells)._payload) is list

    def test_numpy_scalar_cells_stay_a_list(self):
        frame = DataFrame({"a": [1.5, 2.5]})
        frame.loc[0, "a"] = np.float64(3.5)
        assert type(frame["a"]._payload) is list
        assert type(frame["a"].tolist()[0]) is np.float64

    def test_fillna_int_on_floats_writes_an_int(self):
        out = Series([1.5, NA]).fillna(0)
        assert type(out._payload) is list
        assert [type(v) for v in out.tolist()] == [float, int]

    def test_empty_results_are_lists(self):
        s = Series([1.5, 2.5])
        assert type(s[s > 10]._payload) is list
        assert type(s.take([])._payload) is list
        assert s[s > 10].dtype == "float64"

    def test_payload_is_read_only(self):
        s = Series([1.5, 2.5])
        with pytest.raises(ValueError):
            s._payload[0] = 9.0
        for clone in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            with pytest.raises(ValueError):
                clone._payload[0] = 9.0

    def test_values_is_a_fresh_writable_array(self):
        s = Series([1.5, 2.5])
        values = s.values
        values[0] = 9.0
        assert s.tolist() == [1.5, 2.5]


class TestCopyOnWrite:
    def test_copy_shares_and_writes_stay_private(self):
        src = Series([1.5, 2.5, 3.5], index=["a", "b", "c"])
        twin = src.copy()
        assert twin._payload is src._payload
        twin["b"] = -1.0
        assert isinstance(twin._payload, np.ndarray)
        assert src.tolist() == [1.5, 2.5, 3.5]
        twin["c"] = 7  # another cell type: the column becomes a list
        assert type(twin._payload) is list
        assert twin.tolist() == [1.5, -1.0, 7]

    def test_write_restoring_one_type_retypes_the_column(self):
        s = Series([1.5, None])
        s[1] = 2.5
        assert s._payload.dtype == np.float64

    def test_loc_write_does_not_reach_the_copy(self):
        src = DataFrame({"a": [1.5, 2.5], "b": [1, 2]})
        snap = src.copy()
        src.loc[src["a"] > 2, "a"] = 0.5
        assert snap["a"].tolist() == [1.5, 2.5]
        assert src["a"].tolist() == [1.5, 0.5]
        assert snap["b"]._payload is src["b"]._payload

    def test_resumed_namespace_is_isolated_from_the_snapshot(self):
        executor = IncrementalExecutor()
        prefix = "import pandas as pd\ndf = pd.DataFrame({'a': [1.5, 2.5]})\n"
        first = executor.run_script(prefix + "df")
        second = executor.run_script(prefix + "df.loc[0, 'a'] = 77.5\ndf")
        third = executor.run_script(prefix + "df")
        assert first.ok and second.ok and third.ok
        assert second.output["a"].tolist() == [77.5, 2.5]
        assert third.output["a"].tolist() == [1.5, 2.5]


class TestNoNumpyScalars:
    @pytest.mark.parametrize("cells", [[1.5, NA, 2.5], [1, 2, 3], [True, False, True]])
    def test_accessors_and_reductions_return_python_scalars(self, cells):
        s = Series(cells, index=["a", "b", "c"])
        frame = DataFrame({"s": s})
        produced = (
            list(s)
            + s.tolist()
            + [s.iloc[0], s.iloc[-1], s["b"], s.loc["c"], s[["a"]].item()]
            + [getattr(s, name)() for name in ("sum", "mean", "median", "std", "var", "min", "max", "count", "quantile")]
            + list(frame.to_dict(orient="records")[0].values())
            + [v for row in frame.itertuples() for v in row]
            + list(frame.iloc[1])
        )
        assert not [v for v in produced if isinstance(v, np.generic)]


class TestFingerprints:
    def test_equal_content_prints_equal(self):
        a = DataFrame({"x": [1.5, NA], "y": [1, 2]})
        b = DataFrame({"x": [1.5, -NA], "y": [1, 2]}, index=["p", "q"])
        assert table_fingerprint(a) == table_fingerprint(b)

    def test_prepared_jaccard_matches_naive_on_typed_columns(self):
        original = DataFrame({"x": [1.5, NA, 0.0], "y": [1, 2, 3]})
        candidate = DataFrame({"x": [1.5, float("nan"), -0.0], "y": [1.0, 2.0, 3.0]})
        intent = TableJaccardIntent()
        prepared = intent.prepare(original)
        assert prepared.delta(candidate) == intent.delta(original, candidate)
        fresh = DataFrame({"x": [1.5, float("nan"), 0.0], "y": [1, 2, 3]})
        assert prepared.delta(fresh) == 1.0
        assert prepared.short_circuits == 1

    def test_signed_zero_and_int_vs_float_differ(self):
        base = table_fingerprint(DataFrame({"x": [0.0]}))
        assert base != table_fingerprint(DataFrame({"x": [-0.0]}))
        assert table_fingerprint(DataFrame({"x": [1]})) != table_fingerprint(
            DataFrame({"x": [1.0]})
        )
