"""Tests for the warm cache and its LucidScript wiring.

The acceptance contract: routing corpus construction through the index
(warm cache or a prebuilt ``CorpusIndex``) changes construction cost
only — scores and search results are identical to a search over a
vocabulary built by ``CorpusVocabulary.from_scripts``, the cache-free
oracle.
"""

import pytest

from repro.core import LSConfig, LucidScript, TableJaccardIntent
from repro.corpus import (
    CorpusIndex,
    cache,
    cached_index,
    clear_corpus_cache,
    corpus_cache_counters,
    shared_store,
)
from repro.lang import CorpusVocabulary


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_corpus_cache()
    yield
    clear_corpus_cache()


class TestWarmCache:
    def test_repeat_construction_hits_index_layer(self, diabetes_corpus):
        cached_index(diabetes_corpus)
        before = corpus_cache_counters()
        again = cached_index(diabetes_corpus)
        delta = corpus_cache_counters().delta(before)
        assert delta.index_hits == 1
        assert delta.script_parses == 0
        assert again.n_scripts == 3

    def test_overlapping_corpora_share_the_store(self, diabetes_corpus):
        cached_index(diabetes_corpus)
        before = corpus_cache_counters()
        cached_index(diabetes_corpus[:2])  # different sequence, same scripts
        delta = corpus_cache_counters().delta(before)
        assert delta.index_misses == 1
        assert delta.script_parses == 0  # every script already stored

    def test_prewarm_via_shared_store(self, diabetes_corpus):
        store = shared_store()
        for script in diabetes_corpus:
            store.get_or_parse(script)
        before = corpus_cache_counters()
        cached_index(diabetes_corpus)
        assert corpus_cache_counters().delta(before).script_parses == 0

    def test_clear_resets_both_layers(self, diabetes_corpus):
        cached_index(diabetes_corpus)
        clear_corpus_cache()
        counters = corpus_cache_counters()
        assert counters.index_hits == counters.index_misses == 0
        assert counters.script_parses == 0


class TestLucidScriptWiring:
    def test_cached_vocabulary_bit_identical(self, diabetes_corpus):
        system = LucidScript(diabetes_corpus)
        fresh = CorpusVocabulary.from_scripts(diabetes_corpus)
        assert system.vocabulary.edge_counts == fresh.edge_counts
        assert system.vocabulary.relative_positions == fresh.relative_positions
        assert {
            s: list(c.items()) for s, c in system.vocabulary.successors.items()
        } == {s: list(c.items()) for s, c in fresh.successors.items()}

    def test_accepts_prebuilt_index(self, diabetes_corpus):
        index = CorpusIndex.from_scripts(diabetes_corpus)
        system = LucidScript(index)
        assert system.vocabulary.stats().n_scripts == 3

    def test_accepts_vocabulary_directly(self, diabetes_corpus):
        vocabulary = CorpusVocabulary.from_scripts(diabetes_corpus)
        system = LucidScript(vocabulary)
        assert system.vocabulary is vocabulary

    def test_verify_index_audits_construction(self, diabetes_corpus):
        LucidScript(diabetes_corpus, config=LSConfig(audit=True))

    def test_search_results_identical_with_and_without_index(
        self, diabetes_corpus, alex_script, diabetes_dir
    ):
        """Acceptance: same output script, improvement, and scores on the
        cache-free, warm-cache, and prebuilt-index paths."""
        results = []
        for corpus in (
            diabetes_corpus,  # warm cache
            CorpusIndex.from_scripts(diabetes_corpus),  # prebuilt index
            CorpusVocabulary.from_scripts(diabetes_corpus),  # cache-free
        ):
            system = LucidScript(
                corpus,
                data_dir=diabetes_dir,
                intent=TableJaccardIntent(tau=0.5),
                config=LSConfig(seq=6, beam_size=2, sample_rows=120),
            )
            results.append(system.standardize(alex_script))
        cold = results.pop()
        for result in results:
            assert result.output_script == cold.output_script
            assert result.improvement == cold.improvement
            assert result.re_before == cold.re_before
            assert result.re_after == cold.re_after

    def test_repeat_construction_reuses_the_warm_index(
        self, diabetes_corpus, alex_script, diabetes_dir
    ):
        config = LSConfig(seq=4, beam_size=1, sample_rows=120)
        LucidScript(
            diabetes_corpus,
            data_dir=diabetes_dir,
            intent=TableJaccardIntent(tau=0.5),
            config=config,
        )
        before = corpus_cache_counters()
        system = LucidScript(
            diabetes_corpus,
            data_dir=diabetes_dir,
            intent=TableJaccardIntent(tau=0.5),
            config=config,
        )
        system.standardize(alex_script)
        delta = corpus_cache_counters().delta(before)
        assert (delta.index_hits, delta.index_misses) == (1, 0)
        assert delta.script_parses == 0


class TestCorpusKeyFastPath:
    """The addr-based corpus key: warm lookups never re-hash script text."""

    def test_first_lookup_is_slow_then_fast(self, diabetes_corpus):
        memo = cache._ADDR_MEMO
        cached_index(diabetes_corpus)
        assert (memo.hits, memo.misses) == (0, len(diabetes_corpus))
        # the warm lookup resolves every address from the memo and never
        # reaches the store
        before = corpus_cache_counters()
        cached_index(diabetes_corpus)
        delta = corpus_cache_counters().delta(before)
        assert (memo.hits, memo.misses) == (len(diabetes_corpus),) * 2
        assert delta.script_hits == delta.script_parses == 0
        assert delta.index_hits == 1

    def test_key_is_order_sensitive(self, diabetes_corpus):
        """Corpus order is semantic (tie order, templates, positions)."""
        forward = cached_index(diabetes_corpus)
        reversed_ = cached_index(list(reversed(diabetes_corpus)))
        assert forward is not reversed_

    def test_unparseable_scripts_get_stable_failure_keys(self, diabetes_corpus):
        scripts = diabetes_corpus + ["not python ((("]
        from repro.lang import ScriptError

        with pytest.raises(ScriptError):
            cached_index(["not python ((("])
        # same broken corpus -> same key -> the index cache still works
        first = cached_index(scripts)
        assert cached_index(scripts) is first

    def test_key_work_is_reused_by_construction(self, diabetes_corpus):
        """The key path's parses feed the store the build then hits."""
        before = corpus_cache_counters()
        cached_index(diabetes_corpus)
        delta = corpus_cache_counters().delta(before)
        # scripts 0/1 share a content hash: 2 unique parses total, and
        # the from_scripts build right after finds every record resident
        assert delta.script_parses == 2
        assert delta.script_hits >= len(diabetes_corpus)


class TestSharedStoreBound:
    def test_shared_store_is_bounded_by_default(self):
        from repro.corpus.cache import SHARED_STORE_LIMIT

        assert shared_store().capacity == SHARED_STORE_LIMIT

    def test_shared_store_evicts_past_its_bound(self, monkeypatch):
        monkeypatch.setattr(cache, "SHARED_STORE_LIMIT", 2)
        clear_corpus_cache()
        store = shared_store()
        assert store.capacity == 2
        scripts = [
            f"import pandas as pd\ndf = pd.read_csv('f{i}.csv')\ndf" for i in range(4)
        ]
        for script in scripts:
            store.get_or_parse(script)
        assert len(store) == 2
        assert store._records.evictions == 2

    def test_indexes_keep_strong_refs_across_evictions(self, monkeypatch):
        monkeypatch.setattr(cache, "SHARED_STORE_LIMIT", 1)
        clear_corpus_cache()
        store = shared_store()
        scripts = [
            f"import pandas as pd\ndf = pd.read_csv('f{i}.csv')\ndf" for i in range(3)
        ]
        index = CorpusIndex.from_scripts(scripts, store=store)
        assert len(store) == 1  # store kept only the most recent
        assert index.n_scripts == 3  # the index kept all of its records
        index.verify()  # still bit-identical to a cold rebuild
