"""Property-based tests (hypothesis) for minipandas invariants."""

import math
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.minipandas as pd
from repro.minipandas import NA, DataFrame, Series, is_missing

#: The characters of every generated string.  Without an alphabet
#: hypothesis draws from all of Unicode, and the first such strategy in a
#: checkout without ``.hypothesis/`` builds its Unicode table, lifting the
#: test process by about 200 MB.  These properties check types, equality
#: and hashing, never a character class, so a small alphabet loses no
#: case: the CSV and repr specials (comma, both quotes, backslash, tab,
#: CR, LF), a Latin-1 letter, a CJK character and an astral-plane one.
TEXT_ALPHABET = (
    string.ascii_letters + string.digits + " ,'\"\\\t\r\n" + "é中\U0001d518"
)

# values a numeric column may hold (NaN included)
numeric_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.just(NA),
)
numeric_lists = st.lists(numeric_values, min_size=0, max_size=40)
nonempty_numeric_lists = st.lists(numeric_values, min_size=1, max_size=40)
string_values = st.one_of(
    st.text(TEXT_ALPHABET, min_size=0, max_size=8), st.none()
)
string_lists = st.lists(string_values, min_size=1, max_size=30)


@given(numeric_lists)
def test_fillna_removes_all_missing(values):
    out = Series(values).fillna(0)
    assert not any(is_missing(v) for v in out)


@given(numeric_lists)
def test_fillna_preserves_length_and_present_values(values):
    s = Series(values)
    out = s.fillna(-1)
    assert len(out) == len(s)
    for before, after in zip(s, out):
        if not is_missing(before):
            assert after == before


@given(numeric_lists)
def test_dropna_count_identity(values):
    s = Series(values)
    assert len(s.dropna()) == s.count()


@given(numeric_lists)
def test_isnull_notnull_partition(values):
    s = Series(values)
    nulls = s.isnull().tolist()
    notnulls = s.notnull().tolist()
    assert all(a != b for a, b in zip(nulls, notnulls))


@given(nonempty_numeric_lists)
def test_mean_bounded_by_min_max(values):
    s = Series(values)
    if s.count() == 0:
        assert is_missing(s.mean())
        return
    assert s.min() - 1e-6 <= s.mean() <= s.max() + 1e-6


@given(nonempty_numeric_lists)
def test_sort_values_is_ordered_permutation(values):
    s = Series(values)
    out = s.sort_values()
    present = [v for v in out if not is_missing(v)]
    assert all(a <= b for a, b in zip(present, present[1:]))
    assert len(out) == len(s)
    assert sorted(map(repr, out.tolist())) == sorted(map(repr, s.tolist()))


@given(nonempty_numeric_lists, st.integers(min_value=0, max_value=50))
def test_sample_is_subset_without_replacement(values, n):
    s = Series(values)
    out = s.sample(n, random_state=0)
    assert len(out) == min(n, len(s))
    labels = out.index.tolist()
    assert len(set(labels)) == len(labels)
    for label in labels:
        assert label in s.index


@given(string_lists)
def test_value_counts_sums_to_count(values):
    s = Series(values)
    assert s.value_counts().sum() == s.count()


@given(string_lists)
def test_value_counts_normalized_sums_to_one(values):
    s = Series(values)
    if s.count():
        assert s.value_counts(normalize=True).sum() == pytest.approx(1.0)


@given(string_lists)
def test_unique_matches_set(values):
    s = Series(values)
    uniq = [v for v in s.unique() if not is_missing(v)]
    assert set(uniq) == {v for v in values if not is_missing(v)}
    assert len(uniq) == s.nunique()


@given(numeric_lists, numeric_lists)
def test_series_add_commutes(a_values, b_values):
    n = min(len(a_values), len(b_values))
    a, b = Series(a_values[:n]), Series(b_values[:n])
    left, right = (a + b).tolist(), (b + a).tolist()
    for x, y in zip(left, right):
        if is_missing(x) or is_missing(y):
            assert is_missing(x) and is_missing(y)
        else:
            assert x == pytest.approx(y)


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=30))
def test_mask_filter_equals_python_filter(values):
    s = Series(values)
    assert s[s > 0].tolist() == [v for v in values if v > 0]


@given(st.lists(st.integers(-5, 5), min_size=1, max_size=30))
def test_between_equals_two_comparisons(values):
    s = Series(values)
    combined = (s >= -2) & (s <= 2)
    assert s.between(-2, 2).tolist() == combined.tolist()


@given(st.lists(st.sampled_from(["a", "b", "c", None]), min_size=1, max_size=30))
def test_get_dummies_row_count_and_onehot(labels):
    frame = DataFrame({"s": labels})
    out = pd.get_dummies(frame)
    assert len(out) == len(labels)
    # each row has at most one hot dummy cell, exactly one when not missing
    dummy_cols = [c for c in out.columns if c.startswith("s_")]
    for pos, label in enumerate(labels):
        hot = sum(out[c].iloc[pos] for c in dummy_cols)
        if label is None:
            assert hot == 0
        elif dummy_cols:
            assert hot == 1


@given(
    st.lists(st.integers(0, 3), min_size=1, max_size=25),
    st.lists(st.integers(0, 3), min_size=1, max_size=25),
)
def test_concat_length_is_sum(a_vals, b_vals):
    a, b = DataFrame({"x": a_vals}), DataFrame({"x": b_vals})
    assert len(pd.concat([a, b], ignore_index=True)) == len(a) + len(b)


@given(st.lists(st.sampled_from(["p", "q", "r"]), min_size=1, max_size=30))
def test_groupby_sizes_sum_to_rows(keys):
    frame = DataFrame({"k": keys, "v": list(range(len(keys)))})
    assert frame.groupby("k").size().sum() == len(keys)


@given(st.lists(st.sampled_from(["p", "q"]), min_size=1, max_size=30))
def test_groupby_transform_preserves_order_and_length(keys):
    frame = DataFrame({"k": keys, "v": list(range(len(keys)))})
    out = frame.groupby("k")["v"].transform("mean")
    assert len(out) == len(keys)
    # all rows of the same group share the broadcast value
    by_key = {}
    for key, value in zip(keys, out):
        by_key.setdefault(key, set()).add(value)
    assert all(len(vals) == 1 for vals in by_key.values())


@given(st.lists(st.tuples(st.integers(0, 50), st.sampled_from("xyz")), min_size=1, max_size=30))
@settings(max_examples=50)
def test_csv_roundtrip_preserves_values(rows):
    import tempfile

    with tempfile.NamedTemporaryFile(mode="w", suffix=".csv", delete=False) as handle:
        path = handle.name
    frame = DataFrame(
        {"n": [r[0] for r in rows], "s": [r[1] for r in rows]}
    )
    frame.to_csv(path)
    back = pd.read_csv(path)
    assert back["n"].tolist() == frame["n"].tolist()
    assert back["s"].tolist() == frame["s"].tolist()


@given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=40))
def test_drop_duplicates_idempotent(values):
    frame = DataFrame({"v": values})
    once = frame.drop_duplicates()
    twice = once.drop_duplicates()
    assert once["v"].tolist() == twice["v"].tolist()
    assert len(once) == len(set(values))


@given(st.lists(st.integers(-100, 100), min_size=1, max_size=30))
def test_clip_bounds(values):
    out = Series(values).clip(-10, 10)
    assert all(-10 <= v <= 10 for v in out)
