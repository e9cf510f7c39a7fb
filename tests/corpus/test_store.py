"""Tests for the content-addressed script store."""

import pytest

from repro.corpus import ScriptStore, StoreCounters, content_address
from repro.corpus import store as store_module
from repro.lang import lemmatize, parse_script


class TestContentAddressing:
    def test_lemma_equivalent_scripts_share_a_record(self, diabetes_corpus):
        # scripts 0 and 1 differ only in the dataframe variable name, so
        # they lemmatize to the same canonical text
        store = ScriptStore()
        first = store.get_or_parse(diabetes_corpus[0])
        second = store.get_or_parse(diabetes_corpus[1])
        assert first is second
        assert store.counters.parses == 1
        assert store.counters.hits == 1

    def test_content_hash_is_sha1_of_lemmatized(self, diabetes_corpus):
        store = ScriptStore()
        record = store.get_or_parse(diabetes_corpus[0])
        assert record.content_hash == content_address(lemmatize(diabetes_corpus[0]))

    def test_byte_identical_readd_skips_lemmatize(self, diabetes_corpus, monkeypatch):
        store = ScriptStore()
        record = store.get_or_parse(diabetes_corpus[0])
        parsed = []

        def spy(source, **kwargs):
            parsed.append(source)
            return parse_script(source, **kwargs)

        monkeypatch.setattr(store_module, "parse_script", spy)
        assert store.get_or_parse(diabetes_corpus[0]) is record
        assert parsed == []  # the raw-text memo answered: no lemmatize pass
        assert store.counters.hits == 1

    def test_unparseable_script_is_not_stored(self):
        store = ScriptStore()
        assert store.get_or_parse("this is ( not python") is None
        assert store.counters == StoreCounters()
        assert len(store) == 0

    def test_a_parsed_dag_builds_the_record_a_parse_would(self, diabetes_corpus):
        """``get_or_build`` takes a script parsed already: on a miss it
        builds from that parse, counted as neither a parse nor a hit."""
        for script in diabetes_corpus:
            built_store, parsed_store = ScriptStore(), ScriptStore()
            built = built_store.get_or_build(parse_script(script))
            assert built == parsed_store.get_or_parse(script)
            assert built_store.counters == StoreCounters()
            assert built_store.get_or_build(parse_script(script)) is built
            assert built_store.get_or_parse(lemmatize(script)) is built
            assert built_store.counters.hits == 2
            assert built_store.counters.parses == 0

    def test_record_carries_count_contributions(self, diabetes_corpus):
        store = ScriptStore()
        record = store.get_or_parse(diabetes_corpus[0])
        assert record.n_statements == 5
        assert sum(record.onegram_counts.values()) > 0
        assert record.position_lists
        for values in record.position_lists.values():
            assert all(0.0 <= v <= 1.0 for v in values)


class TestBoundedStore:
    """The capped shared-store configuration (true-LRU eviction)."""

    def _scripts(self, n):
        return [
            f"import pandas as pd\ndf = pd.read_csv('f{i}.csv')\ndf = df.fillna({i})\ndf"
            for i in range(n)
        ]

    def test_capacity_bounds_resident_records(self):
        store = ScriptStore(capacity=2)
        scripts = self._scripts(4)
        for script in scripts:
            store.get_or_parse(script)
        assert len(store) == 2
        assert store._records.evictions == 2

    def test_eviction_is_lru_and_lookups_refresh_recency(self):
        store = ScriptStore(capacity=2)
        a, b, c = self._scripts(3)
        ha = store.get_or_parse(a).content_hash
        store.get_or_parse(b)
        store.get_or_parse(a)  # refresh a; b is now LRU
        hc = store.get_or_parse(c).content_hash
        assert ha in store and hc in store
        assert len(store) == 2

    def test_evicted_record_is_reparsed_on_next_use(self):
        store = ScriptStore(capacity=1)
        a, b = self._scripts(2)
        store.get_or_parse(a)
        store.get_or_parse(b)  # evicts a's record
        parses = store.counters.parses
        record = store.get_or_parse(a)
        assert record is not None
        assert store.counters.parses == parses + 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ScriptStore(capacity=0)
        ScriptStore(capacity=None)  # unbounded is fine

    def test_unbounded_store_never_evicts(self):
        store = ScriptStore()
        for script in self._scripts(50):
            store.get_or_parse(script)
        assert len(store) == 50
