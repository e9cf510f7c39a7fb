"""Differential tests for the columnar kernels and the kernel audit.

The contract under test is bit-identity: every result the single-pass
columnar kernels produce must match the naive row-at-a-time references in
``repro.minipandas._naive`` exactly — same missingness flavour, same cell
types, same labels — across randomized NA-heavy, duplicate-row,
mixed-dtype, empty, and unhashable-cell frames.  Running each op inside
``kernel_audit(True)`` makes the audit machinery itself perform the
comparison and raise ``AuditMismatchError`` on any divergence, so these
tests double as the audit's own regression suite.
"""

import random

import pytest

import repro.minipandas as pd
from repro.core import AuditMismatchError
from repro.minipandas import (
    NA,
    DataFrame,
    Series,
    kernel_audit,
)
from repro.minipandas import _naive as naive
from repro.minipandas import kernels


# ---------------------------------------------------------------- generators
def random_frame(rng, shape=None, na_rate=0.25, dup_rows=False, unhashable=False):
    """A mixed-dtype frame: ints, floats, strings (including the literal
    "__na__" the old sentinel collided with), bools, NA under both
    flavours (None and NaN), optional duplicated rows and list cells."""
    if shape is None:
        n_rows = rng.randrange(0, 12)
        n_cols = rng.randrange(1, 5)
    else:
        n_rows, n_cols = shape
    pools = [
        lambda: rng.randrange(0, 4),
        lambda: rng.choice([0.5, -1.25, 3.0, 7.5]),
        lambda: rng.choice(["x", "y", "__na__", ""]),
        lambda: rng.choice([True, False]),
    ]
    if unhashable:
        pools.append(lambda: rng.choice([[1], [2], [1, 2]]))
    data = {}
    for c in range(n_cols):
        pool = rng.choice(pools)
        column = []
        for _ in range(n_rows):
            if rng.random() < na_rate:
                column.append(rng.choice([None, NA]))
            else:
                column.append(pool())
        data[f"c{c}"] = column
    frame = DataFrame(data)
    if dup_rows and n_rows > 1:
        positions = [rng.randrange(0, n_rows) for _ in range(n_rows)]
        frame = frame.take(positions).reset_index()
    return frame


def seeds():
    return pytest.mark.parametrize("seed", range(12))


# ------------------------------------------------------- differential sweeps
class TestKernelNaiveParity:
    @seeds()
    def test_take_and_masks(self, seed):
        rng = random.Random(seed)
        frame = random_frame(rng, dup_rows=seed % 2 == 0, unhashable=seed % 3 == 0)
        with kernel_audit():
            positions = [
                p for p in range(len(frame)) if rng.random() < 0.6
            ]
            frame.take(positions)
            frame.head(3)
            if frame.columns and len(frame):
                first = frame.columns[0]
                mask = frame[first].notnull()
                frame[mask]
                frame[[bool(rng.randrange(2)) for _ in range(len(frame))]]

    @seeds()
    def test_fillna(self, seed):
        rng = random.Random(seed)
        frame = random_frame(rng, na_rate=0.5)
        with kernel_audit():
            frame.fillna(0)
            frame.fillna("z")
            if frame.columns:
                frame.fillna({frame.columns[0]: -1})
                frame.fillna(Series([9.5], index=[frame.columns[-1]]))

    @seeds()
    def test_dropna(self, seed):
        rng = random.Random(seed)
        frame = random_frame(rng, na_rate=0.5, dup_rows=seed % 2 == 1)
        with kernel_audit():
            frame.dropna()
            frame.dropna(how="all")
            frame.dropna(thresh=1)
            frame.dropna(axis=1)
            frame.dropna(axis=1, how="all")
            if frame.columns:
                frame.dropna(subset=[frame.columns[0]])

    @seeds()
    def test_duplicated(self, seed):
        rng = random.Random(seed)
        frame = random_frame(
            rng, na_rate=0.4, dup_rows=True, unhashable=seed % 2 == 0
        )
        with kernel_audit():
            frame.duplicated()
            frame.drop_duplicates()
            if frame.columns:
                frame.duplicated(subset=[frame.columns[0]])

    @seeds()
    def test_get_dummies(self, seed):
        rng = random.Random(seed)
        frame = random_frame(rng, na_rate=0.3, dup_rows=seed % 2 == 0)
        with kernel_audit():
            pd.get_dummies(frame)
            pd.get_dummies(frame, drop_first=True)
            pd.get_dummies(frame, prefix="P", dtype=float)

    @seeds()
    def test_groupby_agg(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(1, 16)
        frame = DataFrame(
            {
                "k": [rng.choice(["a", "b", None]) for _ in range(n)],
                "k2": [rng.randrange(0, 2) for _ in range(n)],
                "v": [
                    NA if rng.random() < 0.3 else rng.randrange(0, 9)
                    for _ in range(n)
                ],
            }
        )
        with kernel_audit():
            frame.groupby("k").agg("mean")
            frame.groupby(["k", "k2"]).sum()
            frame.groupby("k")["v"].max()
            frame.groupby("k")["v"].count()

    def test_empty_frames(self):
        empty = DataFrame({})
        no_rows = DataFrame({"a": [], "b": []})
        with kernel_audit():
            for frame in (empty, no_rows):
                frame.fillna(0)
                frame.dropna()
                frame.dropna(axis=1)
                frame.duplicated()
                frame.drop_duplicates()
                frame.take([])
                pd.get_dummies(frame)

    def test_direct_naive_equality(self):
        """Kernel results equal the references via frames_match directly,
        independent of the audit plumbing."""
        rng = random.Random(99)
        frame = random_frame(rng, shape=(10, 4), na_rate=0.4, dup_rows=True)
        assert kernels.frames_match(
            frame.take([2, 0, 5]), naive.take_frame(frame, [2, 0, 5])
        )
        assert kernels.frames_match(
            frame.fillna(0), naive.fillna_frame(frame, 0)
        )
        assert kernels.frames_match(
            frame.dropna(), naive.dropna_frame(frame, 0, "any", None, None)
        )
        assert kernels.series_match(
            frame.duplicated(), naive.duplicated_frame(frame, None)
        )


# ----------------------------------------------------------- audit machinery
class TestKernelAudit:
    def test_audit_raises_on_divergence(self, monkeypatch):
        frame = DataFrame({"a": [1, None, 3]})
        monkeypatch.setattr(
            naive, "fillna_frame", lambda f, v: DataFrame({"a": [9, 9, 9]})
        )
        with kernel_audit():
            with pytest.raises(AuditMismatchError) as caught:
                frame.fillna(0)
        assert caught.value.layer == "kernel"

    def test_audit_scope_restores_prior_state(self):
        assert not kernels.audit_enabled()
        with kernel_audit():
            assert kernels.audit_enabled()
            with kernel_audit(False):
                assert not kernels.audit_enabled()
            assert kernels.audit_enabled()
        assert not kernels.audit_enabled()

    def test_same_cell_is_type_and_flavour_strict(self):
        assert kernels.same_cell(NA, NA)
        assert kernels.same_cell(None, None)
        assert not kernels.same_cell(None, NA)  # missingness flavour
        assert not kernels.same_cell(1, True)  # type-strict
        assert not kernels.same_cell(1, 1.0)
        assert kernels.same_cell("a", "a")


# ---------------------------------------------------------------- bugfix 1/3
class TestDuplicatedSentinel:
    def test_genuine_na_string_does_not_collide_with_missing(self):
        frame = DataFrame({"s": ["__na__", None, "__na__", None]})
        assert frame.duplicated().tolist() == [False, False, True, True]
        kept = frame.drop_duplicates()
        assert kept["s"].tolist()[0] == "__na__"
        assert len(kept) == 2  # one string row AND one missing row survive

    def test_series_sentinel(self):
        s = Series(["__na__", NA, "__na__"])
        assert s.duplicated().tolist() == [False, False, True]
        assert len(s.unique()) == 2

    def test_unhashable_cells_do_not_raise(self):
        frame = DataFrame({"u": [[1], [1], [2], {"k": 1}]})
        assert frame.duplicated().tolist() == [False, True, False, False]
        assert len(frame.drop_duplicates()) == 3

    def test_na_key_distinguishes_flavours_by_identity_only(self):
        assert kernels.na_key(None) is kernels.NA_KEY
        assert kernels.na_key(NA) is kernels.NA_KEY
        assert kernels.na_key("__na__") == "__na__"


# ---------------------------------------------------------------- bugfix 2/3
class TestGetDummiesCollision:
    def test_dummy_vs_existing_column(self):
        frame = DataFrame({"x": ["1", "a"], "x_1": [5, 6]})
        out = pd.get_dummies(frame)
        # nothing silently overwritten: every column present and distinct
        assert len(set(out.columns)) == len(out.columns)
        assert len(out.columns) == 3
        # insertion order decides who keeps the bare name: x's dummies
        # come first, the passthrough collides and gets the suffix
        assert out["x_1"].tolist() == [1, 0]
        assert out["x_a"].tolist() == [0, 1]
        assert out["x_1_1"].tolist() == [5, 6]

    def test_dummy_vs_dummy(self):
        # column "x" value "1_y" vs column "x_1" value "y" both want "x_1_y"
        frame = DataFrame({"x": ["1_y", "1_y"], "x_1": ["y", "z"]})
        out = pd.get_dummies(frame)
        assert len(set(out.columns)) == len(out.columns)
        assert sorted(out.columns) == ["x_1_y", "x_1_y_1", "x_1_z"]
        assert out["x_1_y"].tolist() == [1, 1]  # x's dummy was inserted first
        assert out["x_1_y_1"].tolist() == [1, 0]

    def test_dedup_is_deterministic(self):
        frame = DataFrame({"x": ["1", "a"], "x_1": [5, 6]})
        first = pd.get_dummies(frame)
        second = pd.get_dummies(frame)
        assert first.columns == second.columns

    def test_fresh_name_rule(self):
        used = {"a": None, "a_1": None}
        assert kernels.fresh_name("b", used) == "b"
        assert kernels.fresh_name("a", used) == "a_2"


# ---------------------------------------------------------------- bugfix 3/3
class TestUntouchedColumnSharing:
    def test_fillna_shares_untouched_payloads(self):
        src = DataFrame({"a": [1, None], "b": ["x", "y"], "c": [True, False]})
        out = src.fillna({"a": 0})
        assert out["b"]._payload is src["b"]._payload
        assert out["c"]._payload is src["c"]._payload
        assert out["a"]._payload is not src["a"]._payload
        assert out["a"].tolist() == [1, 0]

    def test_fillna_scalar_shares_columns_with_nothing_missing(self):
        src = DataFrame({"a": [1, 2], "b": [None, "y"]})
        out = src.fillna("z")
        assert out["a"]._payload is src["a"]._payload
        assert out["b"]._payload is not src["b"]._payload

    def test_shared_payload_is_mutation_isolated(self):
        src = DataFrame({"a": [1, None], "b": ["x", "y"]})
        out = src.fillna({"a": 0})
        out.loc[0, "b"] = "mut"
        assert src["b"].tolist() == ["x", "y"]  # copy-on-write isolated
        assert out["b"].tolist() == ["mut", "y"]
