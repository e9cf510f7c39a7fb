"""Property tests for the content-addressed incremental intent engine.

The contract under test is exactness: every delta the prepared engine
returns must be bit-identical (``==`` on floats, not approx) to the naive
pairwise recomputation in ``values`` mode, the one the search measures,
across arbitrary candidate perturbations, and the intent audit
(``LSConfig.audit``) must stay silent over a full search.
"""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AuditMismatchError,
    LSConfig,
    LucidScript,
    ModelPerformanceIntent,
    TableJaccardIntent,
)
from repro.core.intent import (
    ACCURACY_CACHE,
    PreparedIntent,
    PreparedTableJaccard,
    _ColumnContent,
    _keyed_columns,
    table_fingerprint,
    table_jaccard,
)
from repro.minipandas import NA, DataFrame, Series, is_missing

#: the naive oracle's modes; the search measures ``values`` alone
MODES = ("cells", "values", "rows")


def search_measure(mode, tau=0.9):
    """The search's Δ_J beside the naive oracle in *mode*, or None when
    the search has no measure for *mode*: ``TableJaccardIntent`` takes no
    mode, and asking it for one is refused."""
    if mode != "values":
        with pytest.raises(TypeError, match="mode"):
            TableJaccardIntent(tau=tau, mode=mode)
        return None
    return TableJaccardIntent(tau=tau)


# ---------------------------------------------------------------- generators
def random_frame(rng, n_rows=None, n_cols=None, na_rate=0.2):
    """A mixed-type frame: ints, floats, strings, NA, and the literal
    string "__NA__" (which the sentinel normalization must survive)."""
    n_rows = rng.randrange(0, 9) if n_rows is None else n_rows
    n_cols = rng.randrange(1, 6) if n_cols is None else n_cols
    pools = [
        lambda: rng.randrange(0, 5),
        lambda: rng.choice([0.5, 1.25, -3.0]),
        lambda: rng.choice(["x", "y", "__NA__", ""]),
        lambda: rng.choice([True, False]),
    ]
    data = {}
    for c in range(n_cols):
        pool = rng.choice(pools)
        data[f"c{c}"] = [
            NA if rng.random() < na_rate else pool() for _ in range(n_rows)
        ]
    return DataFrame(data)


def perturb(rng, frame):
    """One random candidate: identical copy, renamed / dropped / added
    column, mutated cells, dropped or duplicated rows, or empty table."""
    kind = rng.randrange(0, 8)
    columns = list(frame.columns)
    if kind == 0 or not columns:
        return frame.copy()
    if kind == 1:
        return DataFrame()
    data = {name: frame[name].tolist() for name in columns}
    if kind == 2:  # rename one column
        old = rng.choice(columns)
        data[f"renamed_{old}"] = data.pop(old)
    elif kind == 3:  # drop one column
        data.pop(rng.choice(columns))
    elif kind == 4:  # add a fresh column
        data["extra"] = [rng.randrange(0, 3) for _ in range(len(frame))]
    elif kind == 5:  # mutate a few cells
        name = rng.choice(columns)
        values = list(data[name])
        for _ in range(rng.randrange(1, 3)):
            if values:
                values[rng.randrange(len(values))] = rng.choice(
                    [NA, "mut", 99, "__NA__"]
                )
        data[name] = values
    elif kind == 6 and len(frame) > 1:  # drop rows
        keep = rng.randrange(1, len(frame))
        data = {name: values[:keep] for name, values in data.items()}
    elif kind == 7 and len(frame) > 0:  # duplicate rows
        data = {name: values + values[:1] for name, values in data.items()}
    return DataFrame(data)


# -------------------------------------------------------------- bit-identity
class TestTableJaccardBitIdentity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_candidates_match_naive(self, mode, seed):
        intent = search_measure(mode, tau=0.5)
        if intent is None:
            return
        rng = random.Random(1000 * seed + len(mode))
        original = random_frame(rng)
        prepared = intent.prepare(original)
        for _ in range(30):
            candidate = perturb(rng, original)
            got = prepared.delta(candidate)
            want = table_jaccard(original, candidate, mode=mode)
            assert got == want

    @pytest.mark.parametrize("mode", MODES)
    def test_na_heavy_frames(self, mode):
        intent = search_measure(mode)
        if intent is None:
            return
        rng = random.Random(7)
        original = random_frame(rng, n_rows=12, n_cols=4, na_rate=0.8)
        prepared = intent.prepare(original)
        for _ in range(10):
            candidate = perturb(rng, original)
            assert prepared.delta(candidate) == table_jaccard(
                original, candidate, mode=mode
            )

    @pytest.mark.parametrize("mode", MODES)
    def test_empty_tables(self, mode):
        intent = search_measure(mode)
        if intent is None:
            return
        empty = DataFrame()
        prepared = intent.prepare(empty)
        assert prepared.delta(DataFrame()) == 1.0
        full = DataFrame({"a": [1, 2]})
        assert prepared.delta(full) == table_jaccard(empty, full, mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_zero_row_columns(self, mode):
        intent = search_measure(mode)
        if intent is None:
            return
        original = DataFrame({"a": [], "b": []})
        prepared = intent.prepare(original)
        for candidate in (DataFrame({"a": [], "b": []}), DataFrame({"a": [1]}),
                          DataFrame()):
            assert prepared.delta(candidate) == table_jaccard(
                original, candidate, mode=mode
            )

    def test_renamed_column_distinguished_in_cells_mode(self):
        original = DataFrame({"a": [1, 2]})
        renamed = DataFrame({"b": [1, 2]})
        assert table_jaccard(original, renamed, mode="cells") == 0.0
        # the search measures values, which ignore the rename
        assert TableJaccardIntent().prepare(original).delta(renamed) == 1.0

    def test_check_matches_naive_check(self):
        original = DataFrame({"a": [1, 2, 3]})
        candidate = DataFrame({"a": [1, 2, 9]})
        intent = TableJaccardIntent(tau=0.5)
        assert intent.prepare(original).check(candidate) == intent.check(
            original, candidate
        )


# ------------------------------------------------------------------ counters
def _contents(prepared, frame):
    """The memo's content object for each column of *frame*, which a
    check of *frame* has already memoized."""
    return [prepared._memoized(key, payload) for _, key, payload in _keyed_columns(frame)]


class TestCounters:
    def test_short_circuit_on_identical_content(self):
        original = DataFrame({"a": [1, NA], "b": ["x", "y"]})
        prepared = TableJaccardIntent().prepare(original)
        assert prepared.delta(original.copy()) == 1.0
        assert prepared.short_circuits == 1
        assert prepared.checks == 1

    def test_column_set_reuse_on_unchanged_columns(self):
        original = DataFrame({"a": [1, 2], "b": [3, 4], "c": [5, 6]})
        candidate = DataFrame({"a": [1, 2], "b": [3, 4], "c": [9, 9]})
        prepared = TableJaccardIntent().prepare(original)
        prepared.delta(candidate)
        # columns a and b resolve to the contents the original built
        a, b, c = _contents(prepared, candidate)
        assert a is prepared._original_contents[0]
        assert b is prepared._original_contents[1]
        assert c is not prepared._original_contents[2]
        assert len(prepared._memo) == 4

    def test_memo_shared_across_candidate_wave(self):
        original = DataFrame({"a": [1, 2], "b": [3, 4]})
        prepared = TableJaccardIntent().prepare(original)
        novel = DataFrame({"a": [7, 8], "b": [3, 4]})
        prepared.delta(novel)
        seen = _contents(prepared, novel)
        # a repeat of the novel candidate answers every column from the memo
        prepared.delta(novel.copy())
        assert _contents(prepared, novel.copy()) == seen
        mutated = DataFrame({"a": [7, 8], "b": [9, 9]})
        prepared.delta(mutated)
        # the mutated-a content was memoized by the first novel candidate
        assert _contents(prepared, mutated)[0] is seen[0]
        assert len(prepared._memo) == 4
        # the whole-table short-circuit is reserved for the original's content
        assert prepared.short_circuits == 0
        prepared.delta(original.copy())
        assert prepared.short_circuits == 1


# --------------------------------------------------------------- verify mode
class TestVerifyMode:
    @pytest.mark.parametrize("mode", MODES)
    def test_audit_stays_silent_on_random_waves(self, mode):
        intent = search_measure(mode)
        if intent is None:
            return
        rng = random.Random(42)
        original = random_frame(rng, n_rows=6, n_cols=4)
        prepared = intent.prepare(original, verify=True)
        for _ in range(20):
            prepared.delta(perturb(rng, original))
        assert prepared.checks == 20

    def test_divergence_raises(self, monkeypatch):
        original = DataFrame({"a": [1, 2]})
        prepared = TableJaccardIntent().prepare(original, verify=True)
        monkeypatch.setattr(
            PreparedTableJaccard, "_prepared_delta", lambda self, c: 0.123
        )
        with pytest.raises(AuditMismatchError) as caught:
            prepared.delta(DataFrame({"a": [1, 2]}))
        assert caught.value.layer == "intent"

    def test_generic_fallback_delegates_to_naive(self):
        class OddIntent(TableJaccardIntent):
            def prepare(self, original, verify=False):
                return PreparedIntent(self, original, verify)

        original = DataFrame({"a": [1, 2]})
        candidate = DataFrame({"a": [1, 9]})
        prepared = OddIntent().prepare(original, verify=True)
        assert prepared.delta(candidate) == table_jaccard(
            original, candidate, mode="values"
        )


# --------------------------------------------------------- model performance
def classification_frame(shift=0):
    rows = 24
    return DataFrame({
        "f1": [(i * 7 + shift) % 5 for i in range(rows)],
        "f2": [(i * 3) % 4 + 0.5 for i in range(rows)],
        "label": [i % 2 for i in range(rows)],
    })


class TestModelPerformance:
    def _counting(self, monkeypatch):
        import repro.core.intent as intent_mod

        calls = []
        real = intent_mod.evaluate_downstream

        def counted(frame, target, **kwargs):
            calls.append(table_fingerprint(frame))
            return real(frame, target, **kwargs)

        monkeypatch.setattr(intent_mod, "evaluate_downstream", counted)
        return calls

    def test_naive_delta_trains_both_tables_on_every_call(self, monkeypatch):
        """The naive delta keeps no state, so it is its own ground truth."""
        calls = self._counting(monkeypatch)
        intent = ModelPerformanceIntent(target="label", tau=5.0)
        original = classification_frame()
        intent.delta(original, classification_frame(shift=1))
        intent.delta(original, classification_frame(shift=2))
        assert len(calls) == 4
        assert calls.count(table_fingerprint(original)) == 2

    def test_cache_invalidated_by_different_original(self, monkeypatch):
        calls = self._counting(monkeypatch)
        intent = ModelPerformanceIntent(target="label", tau=5.0)
        intent.delta(classification_frame(), classification_frame(shift=1))
        intent.delta(classification_frame(shift=3), classification_frame(shift=1))
        # two distinct originals: each trained once
        assert len(calls) == 4

    def test_prepared_matches_naive_delta(self):
        intent = ModelPerformanceIntent(target="label", tau=5.0)
        original = classification_frame()
        prepared = intent.prepare(original)
        for shift in (0, 1, 2):
            candidate = classification_frame(shift=shift)
            assert prepared.delta(candidate) == intent.delta(original, candidate)

    def test_prepared_short_circuits_identical_candidate(self, monkeypatch):
        calls = self._counting(monkeypatch)
        ACCURACY_CACHE.clear()  # else the original may be a memo hit
        intent = ModelPerformanceIntent(target="label", tau=5.0)
        original = classification_frame()
        prepared = intent.prepare(original)
        assert prepared.delta(original.copy()) == 0.0
        assert prepared.short_circuits == 1
        assert len(calls) == 1  # trained the original only, never the copy

    def test_unusable_candidate_is_worst_case(self):
        intent = ModelPerformanceIntent(target="label", tau=5.0)
        prepared = intent.prepare(classification_frame())
        no_target = DataFrame({"f1": [1, 2, 3]})
        assert prepared.delta(no_target) == 100.0


# ------------------------------------------------------------- search parity
class TestSearchParity:
    def _run(self, diabetes_corpus, diabetes_dir, alex_script, **overrides):
        config = LSConfig(seq=4, beam_size=2, sample_rows=150, **overrides)
        system = LucidScript(
            diabetes_corpus,
            data_dir=diabetes_dir,
            intent=TableJaccardIntent(tau=0.5),
            config=config,
        )
        return system.standardize(alex_script)

    def test_verify_intent_audits_clean_full_search(
        self, diabetes_corpus, diabetes_dir, alex_script
    ):
        """Every prepared delta is recomputed by the naive
        ``IntentMeasure.check`` and compared exactly; the audited search
        returns what the plain one does."""
        result = self._run(
            diabetes_corpus, diabetes_dir, alex_script, audit=True
        )
        plain = self._run(diabetes_corpus, diabetes_dir, alex_script)
        assert result.output_script == plain.output_script
        assert result.intent_delta == plain.intent_delta
        assert result.intent_satisfied == plain.intent_satisfied
        assert result.re_after == plain.re_after
        assert result.stats.n_intent_checks == plain.stats.n_intent_checks > 0

    def test_a_repeated_standardize_prepares_afresh_and_agrees(
        self, diabetes_corpus, diabetes_dir, alex_script
    ):
        """No prepared state outlives its search: the second call of one
        script on one system prepares the original again and returns the
        same result byte for byte."""
        system = LucidScript(
            diabetes_corpus,
            data_dir=diabetes_dir,
            intent=TableJaccardIntent(tau=0.5),
            config=LSConfig(seq=4, beam_size=2, sample_rows=150),
        )
        first = system.standardize(alex_script)
        second = system.standardize(alex_script)
        assert first.changed and second.stats.n_intent_checks > 0
        assert json.dumps(second.to_dict(), sort_keys=True) == json.dumps(
            first.to_dict(), sort_keys=True
        )
        assert first.stats.n_intent_cache_hits == 0
        assert second.stats.n_intent_cache_hits == 0
        assert not hasattr(system, "_intent_cache")


# ------------------------------------------------------------ exact value sets
SPECIAL_FLOATS = [0.0, -0.0, float("nan"), float("inf"), float("-inf")]
FLOAT_CELLS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
INT_CELLS = st.one_of(
    st.integers(-(2**63), 2**63 - 1),
    st.integers(2**62 - 4, 2**62 + 4),
    st.integers(-(2**62) - 4, -(2**62) + 4),
    st.integers(-3, 3),
)


class TestValueSets:
    """A typed column's distinct values, built in one ``tolist()`` pass,
    equal the naive set of ``_cell_set`` as sets."""

    @staticmethod
    def _check(cells, dtype):
        payload = Series(cells)._payload
        if cells:
            assert isinstance(payload, np.ndarray) and payload.dtype == dtype
        naive = {"__NA__" if is_missing(v) else v for v in cells}
        assert _ColumnContent(payload).value_set() == naive

    @settings(max_examples=200, deadline=None)
    @given(st.lists(FLOAT_CELLS, max_size=30))
    def test_float64(self, cells):
        self._check(cells, np.float64)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(INT_CELLS, max_size=30))
    def test_int64(self, cells):
        self._check(cells, np.int64)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.booleans(), max_size=30))
    def test_bool(self, cells):
        self._check(cells, np.bool_)

    def test_nans_become_one_marker(self):
        values = _ColumnContent(np.array([float("nan"), 1.0, float("nan")])).value_set()
        assert values == frozenset({1.0, "__NA__"})
        assert _ColumnContent(np.array([0.0, -0.0])).value_set() == {0.0}


# ------------------------------------------------------- the one cache key
class TestIntentCacheKey:
    """A prepared state lives for one search, so the only intent cache
    key left is :data:`ACCURACY_CACHE`'s table fingerprint, and only Δ_M
    computes one."""

    def test_only_the_model_measure_computes_a_fingerprint(self, monkeypatch):
        import repro.core.intent as intent_mod

        fingerprinted = []
        real = intent_mod.table_fingerprint
        monkeypatch.setattr(
            intent_mod,
            "table_fingerprint",
            lambda frame: fingerprinted.append(frame) or real(frame),
        )
        original = classification_frame()
        jaccard = TableJaccardIntent().prepare(original)
        jaccard.delta(classification_frame(shift=1))
        assert fingerprinted == []
        model = ModelPerformanceIntent(target="label", tau=5.0).prepare(original)
        assert fingerprinted == []
        model.delta(classification_frame(shift=1))
        assert fingerprinted[0] is original
