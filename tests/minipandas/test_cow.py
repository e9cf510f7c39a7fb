"""Copy-on-write payload sharing: structure, identity, and isolation.

Two invariants: (1) ops that leave a column untouched pass the *same
payload list object* through — ``copy()``, column selection, identity
``take``, ``rename``, ``reset_index``, no-op ``fillna``/``ffill`` — so
derived frames and sandbox snapshots share storage; (2) every in-place
mutation entry point materializes a private list first, so no sharer ever
observes a write.
"""

import repro.minipandas as pd
from repro.minipandas import NA, DataFrame, Index, Series
from repro.sandbox import IncrementalExecutor


def payload(frame, col):
    return frame[col]._payload


class TestStructuralSharing:
    def test_copy_shares_payloads_and_index(self):
        src = DataFrame({"a": [1, 2], "b": ["x", "y"]})
        out = src.copy()
        assert payload(out, "a") is payload(src, "a")
        assert payload(out, "b") is payload(src, "b")
        assert out.index is src.index

    def test_frame_columns_share_one_index_object(self):
        frame = DataFrame({"a": [1, 2], "b": [3, 4]}, index=["r1", "r2"])
        assert frame["a"].index is frame.index
        assert frame["b"].index is frame.index

    def test_constructor_from_frame_shares(self):
        src = DataFrame({"a": [1, 2]})
        out = DataFrame(src)
        assert payload(out, "a") is payload(src, "a")
        assert out.index is src.index

    def test_constructor_from_series_shares(self):
        s = Series([1, 2, 3], name="s")
        frame = DataFrame({"s": s})
        assert payload(frame, "s") is s._payload

    def test_column_selection_shares(self):
        src = DataFrame({"a": [1], "b": [2], "c": [3]})
        out = src[["a", "c"]]
        assert payload(out, "a") is payload(src, "a")
        assert payload(out, "c") is payload(src, "c")

    def test_identity_take_shares(self):
        src = DataFrame({"a": [1, 2, 3]})
        out = src.take([0, 1, 2])
        assert payload(out, "a") is payload(src, "a")

    def test_rename_and_astype_share(self):
        src = DataFrame({"a": [1], "b": [2.5]})
        renamed = src.rename(columns={"a": "z"})
        assert payload(renamed, "z") is payload(src, "a")
        assert renamed["z"].name == "z"
        cast = src.astype({"a": float})
        assert payload(cast, "b") is payload(src, "b")
        assert payload(cast, "a") is not payload(src, "a")

    def test_reset_and_set_index_share(self):
        src = DataFrame({"k": ["x", "y"], "v": [1, 2]}, index=[7, 8])
        flat = src.reset_index()
        assert payload(flat, "v") is payload(src, "v")
        assert flat.index.tolist() == [0, 1]
        keyed = src.set_index("k")
        assert payload(keyed, "v") is payload(src, "v")
        assert keyed.index.tolist() == ["x", "y"]

    def test_noop_ffill_and_setitem_fast_path_share(self):
        src = DataFrame({"a": [1, 2]})
        assert payload(src.ffill(), "a") is payload(src, "a")
        src["b"] = src["a"]
        assert payload(src, "b") is payload(src, "a")

    def test_get_dummies_passthrough_shares(self):
        src = DataFrame({"num": [1, 2], "cat": ["a", "b"]})
        out = pd.get_dummies(src)
        assert payload(out, "num") is payload(src, "num")


class TestMutationIsolation:
    def test_loc_assignment_does_not_leak_into_copy(self):
        src = DataFrame({"a": [1, 2], "b": ["x", "y"]})
        snap = src.copy()
        src.loc[0, "a"] = 99
        assert snap["a"].tolist() == [1, 2]
        assert src["a"].tolist() == [99, 2]
        # untouched column still shared after the write
        assert payload(snap, "b") is payload(src, "b")

    def test_series_setitem_does_not_leak(self):
        src = Series([1, 2, 3], index=["a", "b", "c"])
        twin = src.copy()
        twin["b"] = -1
        assert src.tolist() == [1, 2, 3]
        assert twin.tolist() == [1, -1, 3]

    def test_mask_setitem_does_not_leak(self):
        src = Series([1, 2, 3])
        twin = src.copy()
        twin[twin > 1] = 0
        assert src.tolist() == [1, 2, 3]
        assert twin.tolist() == [1, 0, 0]

    def test_mutating_source_after_sharing_is_isolated(self):
        s = Series([1, 2], name="s")
        frame = DataFrame({"s": s})
        s[0] = 42  # write on the ORIGINAL side of the share
        assert frame["s"].tolist() == [1, 2]

    def test_chain_of_shares_isolated_end_to_end(self):
        a = DataFrame({"x": [1, 2, 3]})
        b = a.copy()
        c = b[["x"]]
        c.loc[1, "x"] = 0
        assert a["x"].tolist() == [1, 2, 3]
        assert b["x"].tolist() == [1, 2, 3]
        assert c["x"].tolist() == [1, 0, 3]


class TestSnapshotSharing:
    SCRIPT = (
        "import pandas as pd\n"
        "df = pd.DataFrame({'a': [1, None, 3], 'b': ['x', 'y', 'z']})\n"
        "df = df.fillna(0)\n"
        "df"
    )

    def test_incremental_snapshots_share_and_count(self):
        executor = IncrementalExecutor()
        first = executor.run_script(self.SCRIPT)
        assert first.ok
        # one snapshot per statement; the last holds the frame the run ended with
        assert executor.snapshot_count() == len(self.SCRIPT.splitlines())
        frozen, _ = executor._snapshots.peek(executor._snapshots.keys()[-1])
        live = first.namespace["df"]
        assert frozen["df"] is not live
        for col in ("a", "b"):
            assert payload(frozen["df"], col) is payload(live, col)

    def test_resumed_namespace_is_isolated_from_snapshot(self):
        executor = IncrementalExecutor()
        prefix = (
            "import pandas as pd\n"
            "df = pd.DataFrame({'a': [1, 2]})\n"
        )
        first = executor.run_script(prefix + "df")
        second = executor.run_script(prefix + "df.loc[0, 'a'] = 77\ndf")
        third = executor.run_script(prefix + "df")
        assert first.ok and second.ok and third.ok
        assert second.output["a"].tolist() == [77, 2]
        # the suffix's in-place write must not have reached the snapshot
        assert third.output["a"].tolist() == [1, 2]
        assert executor.stats.prefix_hits >= 2
