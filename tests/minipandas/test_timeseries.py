"""Tests for the time-series/ordering API: shift, diff, cumulative ops,
rank, fills, interpolation, nlargest, datetimes."""

from datetime import datetime

import pytest

import repro.minipandas as pd
from repro.minipandas import NA, DataFrame, Series, is_missing, to_datetime


class TestShiftDiff:
    def test_shift_forward(self):
        out = Series([1, 2, 3]).shift(1)
        assert is_missing(out.iloc[0])
        assert out.iloc[1:].tolist() == [1, 2]

    def test_shift_backward(self):
        out = Series([1, 2, 3]).shift(-1)
        assert out.iloc[0:2].tolist() == [2, 3]
        assert is_missing(out.iloc[2])

    def test_shift_zero_is_identity(self):
        assert Series([1, 2]).shift(0).tolist() == [1, 2]

    def test_shift_beyond_length_all_missing(self):
        out = Series([1, 2]).shift(5)
        assert all(is_missing(v) for v in out)

    def test_shift_keeps_index(self):
        out = Series([1, 2], index=["a", "b"]).shift(1)
        assert out.index.tolist() == ["a", "b"]

    def test_diff(self):
        out = Series([1, 4, 9]).diff()
        assert is_missing(out.iloc[0])
        assert out.iloc[1:].tolist() == [3, 5]

    def test_pct_change(self):
        out = Series([100.0, 110.0]).pct_change()
        assert out.iloc[1] == pytest.approx(0.1)


class TestCumulative:
    def test_cumsum(self):
        assert Series([1, 2, 3]).cumsum().tolist() == [1.0, 3.0, 6.0]

    def test_cumsum_skips_missing(self):
        out = Series([1.0, NA, 2.0]).cumsum()
        assert out.iloc[0] == 1.0
        assert is_missing(out.iloc[1])
        assert out.iloc[2] == 3.0

    def test_cummax_cummin(self):
        s = Series([2, 1, 5, 3])
        assert s.cummax().tolist() == [2, 2, 5, 5]
        assert s.cummin().tolist() == [2, 1, 1, 1]


class TestRank:
    def test_rank_ascending(self):
        assert Series([30, 10, 20]).rank().tolist() == [3.0, 1.0, 2.0]

    def test_rank_descending(self):
        assert Series([30, 10, 20]).rank(ascending=False).tolist() == [1.0, 3.0, 2.0]

    def test_rank_ties_average(self):
        assert Series([10, 10, 20]).rank().tolist() == [1.5, 1.5, 3.0]

    def test_rank_ties_min(self):
        assert Series([10, 10, 20]).rank(method="min").tolist() == [1, 1, 3]

    def test_rank_ties_first(self):
        assert Series([10, 10, 20]).rank(method="first").tolist() == [1, 2, 3]

    def test_rank_missing_stays_missing(self):
        out = Series([10, NA]).rank()
        assert out.iloc[0] == 1.0
        assert is_missing(out.iloc[1])

    def test_rank_invalid_method(self):
        with pytest.raises(ValueError):
            Series([1]).rank(method="dense")


class TestFills:
    def test_ffill(self):
        out = Series([1.0, NA, NA, 2.0]).ffill()
        assert out.tolist() == [1.0, 1.0, 1.0, 2.0]

    def test_ffill_leading_gap_stays(self):
        assert is_missing(Series([NA, 1.0]).ffill().iloc[0])

    def test_bfill(self):
        out = Series([NA, 1.0, NA, 2.0]).bfill()
        assert out.tolist() == [1.0, 1.0, 2.0, 2.0]

    def test_bfill_trailing_gap_stays(self):
        assert is_missing(Series([1.0, NA]).bfill().iloc[1])

    def test_interpolate_linear(self):
        out = Series([0.0, NA, NA, 3.0]).interpolate()
        assert out.tolist() == [0.0, 1.0, 2.0, 3.0]

    def test_interpolate_edges_stay_missing(self):
        out = Series([NA, 1.0, 2.0, NA]).interpolate()
        assert is_missing(out.iloc[0])
        assert is_missing(out.iloc[3])

    def test_frame_ffill(self):
        frame = DataFrame({"a": [1.0, NA], "b": ["x", None]})
        out = frame.ffill()
        assert out["a"].tolist() == [1.0, 1.0]
        assert out["b"].tolist() == ["x", "x"]


class TestNLargest:
    def test_series_nlargest(self):
        assert Series([5, 1, 9, 3]).nlargest(2).tolist() == [9, 5]

    def test_series_nsmallest(self):
        assert Series([5, 1, 9, 3]).nsmallest(2).tolist() == [1, 3]

    def test_frame_nlargest(self):
        frame = DataFrame({"v": [5, 1, 9], "k": ["a", "b", "c"]})
        out = frame.nlargest(2, "v")
        assert out["k"].tolist() == ["c", "a"]

    def test_frame_shift(self):
        frame = DataFrame({"v": [1, 2]})
        out = frame.shift(1)
        assert is_missing(out["v"].iloc[0])
        assert out["v"].iloc[1] == 1


class TestPivot:
    def test_pivot_basic(self):
        frame = DataFrame(
            {"r": ["x", "x", "y"], "c": ["p", "q", "p"], "v": [1.0, 2.0, 3.0]}
        )
        out = frame.pivot(index="r", columns="c", values="v")
        assert out["p"].tolist() == [1.0, 3.0]
        assert out["q"].iloc[0] == 2.0

    def test_pivot_duplicate_keys_raise(self):
        frame = DataFrame({"r": ["x", "x"], "c": ["p", "p"], "v": [1.0, 2.0]})
        with pytest.raises(ValueError):
            frame.pivot(index="r", columns="c", values="v")


class TestDatetimes:
    def test_to_datetime_iso(self):
        out = to_datetime(Series(["2015-01-02"]))
        assert out.iloc[0] == datetime(2015, 1, 2)

    def test_to_datetime_sales_format(self):
        out = to_datetime(Series(["02.01.2015"]))
        assert out.iloc[0] == datetime(2015, 1, 2)

    def test_to_datetime_explicit_format(self):
        out = to_datetime(Series(["2015|01|02"]), format="%Y|%m|%d")
        assert out.iloc[0].year == 2015

    def test_to_datetime_bad_raises(self):
        with pytest.raises(ValueError):
            to_datetime(Series(["not a date"]))

    def test_to_datetime_coerce(self):
        out = to_datetime(Series(["2015-01-02", "junk"]), errors="coerce")
        assert out.iloc[0].year == 2015
        assert is_missing(out.iloc[1])

    def test_to_datetime_missing_passthrough(self):
        assert is_missing(to_datetime(Series([None])).iloc[0])

    def test_module_level_export(self):
        assert pd.to_datetime(Series(["2020-05-05"])).iloc[0].month == 5

    def test_dt_year_month_day(self):
        s = to_datetime(Series(["2015-03-09"]))
        assert s.dt.year.tolist() == [2015]
        assert s.dt.month.tolist() == [3]
        assert s.dt.day.tolist() == [9]

    def test_dt_dayofweek_quarter(self):
        s = to_datetime(Series(["2015-03-09"]))  # a Monday
        assert s.dt.dayofweek.tolist() == [0]
        assert s.dt.quarter.tolist() == [1]

    def test_dt_strftime(self):
        s = to_datetime(Series(["2015-03-09"]))
        assert s.dt.strftime("%Y/%m").tolist() == ["2015/03"]

    def test_dt_on_non_datetime_raises(self):
        with pytest.raises(AttributeError):
            Series(["2015-03-09"]).dt.year  # strings need to_datetime first

    def test_dt_missing_passthrough(self):
        s = to_datetime(Series(["2015-03-09", None]))
        out = s.dt.year
        assert out.iloc[0] == 2015
        assert is_missing(out.iloc[1])


class TestRolling:
    def test_rolling_mean(self):
        out = Series([1.0, 2.0, 3.0, 4.0]).rolling(2).mean()
        assert is_missing(out.iloc[0])
        assert out.iloc[1:].tolist() == [1.5, 2.5, 3.5]

    def test_rolling_sum_min_max(self):
        s = Series([1.0, 3.0, 2.0])
        assert s.rolling(2).sum().iloc[1:].tolist() == [4.0, 5.0]
        assert s.rolling(2).min().iloc[2] == 2.0
        assert s.rolling(2).max().iloc[2] == 3.0

    def test_rolling_median_std(self):
        s = Series([1.0, 2.0, 9.0])
        assert s.rolling(3).median().iloc[2] == 2.0
        assert s.rolling(2).std().iloc[1] == pytest.approx(0.7071, abs=1e-3)

    def test_min_periods(self):
        out = Series([1.0, 2.0, 3.0]).rolling(3, min_periods=1).mean()
        assert out.tolist() == [1.0, 1.5, 2.0]

    def test_missing_values_skipped_in_window(self):
        out = Series([1.0, NA, 3.0]).rolling(3, min_periods=2).mean()
        assert is_missing(out.iloc[0])
        assert is_missing(out.iloc[1])
        assert out.iloc[2] == 2.0

    def test_window_validation(self):
        with pytest.raises(ValueError):
            Series([1.0]).rolling(0)
        with pytest.raises(ValueError):
            Series([1.0]).rolling(2, min_periods=0)

    def test_preserves_index(self):
        out = Series([1.0, 2.0], index=["a", "b"]).rolling(1).mean()
        assert out.index.tolist() == ["a", "b"]


def _per_cell_to_datetime(values, errors="raise", format=None):
    """The per-cell loop: every cell tries every format in order."""
    out = []
    for value in values:
        if is_missing(value):
            out.append(NA)
            continue
        if isinstance(value, datetime):
            out.append(value)
            continue
        text = str(value).strip()
        formats = [format] if format is not None else [
            "%Y-%m-%d", "%Y-%m-%d %H:%M:%S", "%Y/%m/%d", "%d.%m.%Y", "%m/%d/%Y", "%d-%m-%Y",
        ]
        for fmt in formats:
            try:
                out.append(datetime.strptime(text, fmt))
                break
            except ValueError:
                continue
        else:
            if errors == "coerce":
                out.append(NA)
            elif format is not None:
                datetime.strptime(text, format)
            else:
                raise ValueError(f"unable to parse {value!r} as a datetime")
    return out


class TestToDatetimeOracle:
    CELLS = [
        "2015-01-02",
        "2015-01-02 10:20:30",
        "2015/01/02",
        "02.01.2015",
        "01/02/2015",
        "02-01-2015",
        " 02.01.2015 ",
        "02.01.2015",
        "13/13/2015",
        "junk",
        None,
        NA,
        datetime(2020, 5, 6),
        "2015-1-2",
    ]

    def _outcome(self, func, *args, **kwargs):
        try:
            return [repr(v) for v in func(*args, **kwargs)], None
        except ValueError as exc:
            return None, str(exc)

    def test_matches_the_per_cell_loop(self):
        series = Series(self.CELLS, index=[f"r{i}" for i in range(len(self.CELLS))], name="d")
        for errors in ("coerce", "raise"):
            for cells in (self.CELLS, self.CELLS[:8] + self.CELLS[10:]):
                data = Series(cells, index=series.index.tolist()[: len(cells)], name="d")
                assert self._outcome(to_datetime, data, errors=errors) == self._outcome(
                    _per_cell_to_datetime, cells, errors=errors
                )

    def test_raises_for_the_first_bad_cell_in_row_order(self):
        with pytest.raises(ValueError, match="' junk '"):
            to_datetime(Series(["2015-01-02", " junk ", "other"]))

    def test_matches_the_per_cell_loop_with_a_format(self):
        cells = ["02.01.2015", "2015-01-02", " 03.01.2015", None, "02.01.2015"]
        for errors in ("coerce", "raise"):
            assert self._outcome(
                to_datetime, Series(cells), errors=errors, format="%d.%m.%Y"
            ) == self._outcome(_per_cell_to_datetime, cells, errors=errors, format="%d.%m.%Y")

    def test_shares_the_input_index(self):
        data = Series(["2015-01-02"], index=["a"], name="d")
        out = to_datetime(data)
        assert out.index is data.index
        assert out.name == "d"
