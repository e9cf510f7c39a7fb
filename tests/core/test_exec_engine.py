"""Tests for the execution-engine wiring of the beam search and
standardizer: incremental prefix resumption, bounded memo caches, and
the beam-width invariant."""

import pytest

from repro.core import BeamSearch, LSConfig, LucidScript
from repro.core.entropy import RelativeEntropyScorer
from repro.lang import CorpusVocabulary, parse_script
from repro.lang.parser import STATEMENT_CACHE, STATEMENT_CACHE_LIMIT


@pytest.fixture()
def vocab(diabetes_corpus):
    return CorpusVocabulary.from_scripts(diabetes_corpus)


@pytest.fixture()
def scorer(vocab):
    return RelativeEntropyScorer(vocab)


def make_search(vocab, scorer, diabetes_dir, **config_kwargs):
    defaults = dict(seq=6, beam_size=2, sample_rows=100)
    defaults.update(config_kwargs)
    return BeamSearch(vocab, scorer, LSConfig(**defaults), data_dir=diabetes_dir)


def _outcome(system, script):
    result = system.standardize(script)
    return (result.output_script, result.transformations, result.re_after)


class TestBeamWidthInvariant:
    def test_width_never_exceeds_beam_size(
        self, vocab, scorer, diabetes_dir, alex_script
    ):
        for beam_size in (1, 2, 3):
            search = make_search(vocab, scorer, diabetes_dir, beam_size=beam_size)
            search.search(parse_script(alex_script).statements)
            assert 1 <= search.stats.max_beam_width <= beam_size

    def test_width_invariant_with_diversity_off(
        self, vocab, scorer, diabetes_dir, alex_script
    ):
        search = make_search(
            vocab, scorer, diabetes_dir, beam_size=2, diversity=False
        )
        search.search(parse_script(alex_script).statements)
        assert search.stats.max_beam_width <= 2


class TestBoundedCaches:
    def test_exec_cache_is_bounded(self, vocab, scorer, diabetes_dir, alex_script):
        search = make_search(vocab, scorer, diabetes_dir)
        assert search._exec_cache.capacity == BeamSearch.EXEC_CACHE_LIMIT
        assert STATEMENT_CACHE.capacity == STATEMENT_CACHE_LIMIT

    def test_eviction_kicks_in_at_capacity(
        self, vocab, scorer, diabetes_dir, alex_script, monkeypatch
    ):
        search = make_search(vocab, scorer, diabetes_dir)
        search._exec_cache.capacity = 4
        search.search(parse_script(alex_script).statements)
        assert len(search._exec_cache) <= 4
        assert search._exec_cache.evictions > 0

    def test_cache_stats_surfaced_in_breakdown(
        self, vocab, scorer, diabetes_dir, alex_script
    ):
        search = make_search(vocab, scorer, diabetes_dir)
        search.search(parse_script(alex_script).statements)
        breakdown = search.stats.breakdown()
        assert breakdown["ExecCacheSize"] == len(search._exec_cache)
        assert 0.0 <= breakdown["ExecCacheHitRate"] <= 1.0
        assert breakdown["StatementCacheSize"] == len(STATEMENT_CACHE)
        assert 0.0 <= breakdown["StatementCacheHitRate"] <= 1.0


class TestIncrementalSearch:
    def test_prefix_cache_used_by_search(
        self, vocab, scorer, diabetes_dir, alex_script
    ):
        search = make_search(vocab, scorer, diabetes_dir)
        search.search(parse_script(alex_script).statements)
        stats = search.stats
        assert stats.prefix_cache_hits + stats.prefix_cache_misses > 0
        assert stats.prefix_cache_hits > 0  # candidates share prefixes
        assert stats.prefix_mean_resume_depth > 0.0

    def test_incremental_matches_cold_search(
        self, vocab, scorer, diabetes_dir, alex_script
    ):
        statements = parse_script(alex_script).statements
        cold = make_search(vocab, scorer, diabetes_dir, incremental_exec=False)
        warm = make_search(vocab, scorer, diabetes_dir, incremental_exec=True)
        cold_result = [c.source() for c in cold.search(statements)]
        warm_result = [c.source() for c in warm.search(statements)]
        assert cold_result == warm_result

    def test_cpu_time_tracked(self, vocab, scorer, diabetes_dir, alex_script):
        search = make_search(vocab, scorer, diabetes_dir)
        search.search(parse_script(alex_script).statements)
        assert search.stats.check_executes_cpu_s > 0.0


class TestDeterminism:
    """Prefix-resumed checks must agree with cold re-execution, and a
    repeated run must reproduce its result exactly."""

    def test_standardize_serial_matches_incremental_off(
        self, diabetes_corpus, diabetes_dir, alex_script
    ):
        config_off = LSConfig(
            seq=4, beam_size=2, sample_rows=100, incremental_exec=False
        )
        config_on = LSConfig(
            seq=4, beam_size=2, sample_rows=100, incremental_exec=True
        )
        off = LucidScript(diabetes_corpus, data_dir=diabetes_dir, config=config_off)
        on = LucidScript(diabetes_corpus, data_dir=diabetes_dir, config=config_on)
        assert _outcome(off, alex_script) == _outcome(on, alex_script)

    def test_repeat_runs_identical(self, diabetes_corpus, diabetes_dir, alex_script):
        system = LucidScript(
            diabetes_corpus,
            data_dir=diabetes_dir,
            config=LSConfig(seq=4, beam_size=2, sample_rows=100),
        )
        assert _outcome(system, alex_script) == _outcome(system, alex_script)


class TestConfigValidation:
    def test_parallel_workers_knob_is_gone(self):
        with pytest.raises(TypeError):
            LSConfig(parallel_workers=2)

    def test_snapshot_budget_must_be_non_negative(self):
        with pytest.raises(ValueError):
            LSConfig(snapshot_budget=-1)

    def test_defaults_are_serial_and_incremental(self):
        config = LSConfig()
        assert config.incremental_exec is True
        assert config.snapshot_budget == 64
