"""Tests for the execution-engine wiring of the beam search and
standardizer: incremental prefix resumption checked against cold
``run_script`` (the oracle), bounded memo caches, and the beam-width
invariant."""

import pytest

from repro.core import BeamSearch, LSConfig, LucidScript
from repro.core.entropy import RelativeEntropyScorer
from repro.lang import CorpusVocabulary, parse_script
from repro.lang.parser import STATEMENT_CACHE, STATEMENT_CACHE_LIMIT
from repro.sandbox import IncrementalExecutor, run_script


@pytest.fixture()
def vocab(diabetes_corpus):
    return CorpusVocabulary.from_scripts(diabetes_corpus)


@pytest.fixture()
def scorer(vocab):
    return RelativeEntropyScorer(vocab)


def make_search(vocab, scorer, diabetes_dir, exec_checker=None, **config_kwargs):
    defaults = dict(seq=6, beam_size=2, sample_rows=100)
    defaults.update(config_kwargs)
    return BeamSearch(
        vocab,
        scorer,
        LSConfig(**defaults),
        data_dir=diabetes_dir,
        exec_checker=exec_checker,
    )


def _cold_run(self, source, extra_globals=None, *, segments=None):
    """``IncrementalExecutor.run_script`` replaced by a cold run."""
    return run_script(
        source,
        data_dir=self.data_dir,
        sample_rows=self.sample_rows,
        extra_globals=extra_globals,
        timeout_s=self.exec_timeout_s,
        dialect=self.dialect,
    )


def _outcome(system, script):
    result = system.standardize(script)
    return (result.output_script, result.transformations, result.re_after)


def _beam_widths(search, script):
    """The size of every beam set ``get_top_k_beams`` returns while
    *search* runs over *script*."""
    widths = []
    real = search.get_top_k_beams

    def recorded(*args, **kwargs):
        beams = real(*args, **kwargs)
        widths.append(len(beams))
        return beams

    search.get_top_k_beams = recorded
    search.search(parse_script(script).statements)
    assert widths, "the search extended no beam"
    return widths


class TestBeamWidthInvariant:
    def test_width_never_exceeds_beam_size(
        self, vocab, scorer, diabetes_dir, alex_script
    ):
        for beam_size in (1, 2, 3):
            search = make_search(vocab, scorer, diabetes_dir, beam_size=beam_size)
            widths = _beam_widths(search, alex_script)
            assert 1 <= min(widths) and max(widths) <= beam_size

    def test_width_invariant_with_diversity_off(
        self, vocab, scorer, diabetes_dir, alex_script
    ):
        search = make_search(
            vocab, scorer, diabetes_dir, beam_size=2, diversity=False
        )
        assert max(_beam_widths(search, alex_script)) <= 2


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
        def cold_check(source):
            result = run_script(source, data_dir=diabetes_dir, sample_rows=100)
            return result.ok and result.output is not None

        statements = parse_script(alex_script).statements
        cold = make_search(vocab, scorer, diabetes_dir, exec_checker=cold_check)
        warm = make_search(vocab, scorer, diabetes_dir)
        cold_result = [c.source() for c in cold.search(statements)]
        warm_result = [c.source() for c in warm.search(statements)]
        assert cold_result == warm_result


class TestDeterminism:
    """Prefix-resumed checks must agree with cold re-execution, and a
    repeated run must reproduce its result exactly."""

    def test_standardize_serial_matches_incremental_off(
        self, diabetes_corpus, diabetes_dir, alex_script, monkeypatch
    ):
        def system():
            config = LSConfig(seq=4, beam_size=2, sample_rows=100)
            return LucidScript(diabetes_corpus, data_dir=diabetes_dir, config=config)

        on = system().standardize(alex_script)
        with monkeypatch.context() as patch:
            patch.setattr(IncrementalExecutor, "run_script", _cold_run)
            off = system().standardize(alex_script)
        assert (off.output_script, off.transformations, off.re_after) == (
            on.output_script,
            on.transformations,
            on.re_after,
        )
        assert off.stats.prefix_cache_hits == 0
        assert on.stats.prefix_cache_hits > 0

    def test_repeat_runs_identical(self, diabetes_corpus, diabetes_dir, alex_script):
        system = LucidScript(
            diabetes_corpus,
            data_dir=diabetes_dir,
            config=LSConfig(seq=4, beam_size=2, sample_rows=100),
        )
        assert _outcome(system, alex_script) == _outcome(system, alex_script)


class TestSharedExecutor:
    """One warm executor serves every phase and every standardize()."""

    def test_budget_change_keeps_warm_executor(
        self, diabetes_corpus, diabetes_dir, alex_script
    ):
        config = LSConfig(seq=4, beam_size=2, sample_rows=100)
        system = LucidScript(diabetes_corpus, data_dir=diabetes_dir, config=config)
        system.standardize(alex_script)
        executor = system._executor
        # how the server clamps one job to its deadline
        config.exec_timeout_s = 30.0
        system.standardize(alex_script)
        assert system._executor is executor
        assert executor.exec_timeout_s == 30.0

    def test_sampling_change_rebuilds_executor(
        self, diabetes_corpus, diabetes_dir, alex_script
    ):
        config = LSConfig(seq=2, beam_size=1, sample_rows=100)
        system = LucidScript(diabetes_corpus, data_dir=diabetes_dir, config=config)
        system.standardize(alex_script)
        executor = system._executor
        config.sample_rows = 50
        system.standardize(alex_script)
        assert system._executor is not executor
        assert system._executor.sample_rows == 50


class TestConfigValidation:
    @pytest.mark.parametrize(
        "name",
        [
            "parallel_workers",
            "incremental_exec",
            "incremental_scoring",
            "incremental_intent",
            "corpus_cache",
            "snapshot_budget",
        ],
    )
    def test_deleted_knob_is_gone(self, name):
        with pytest.raises(TypeError):
            LSConfig(**{name: 2})

    def test_snapshot_budget_must_be_non_negative(self):
        # the store's capacity is the constant SNAPSHOT_LIMIT, not a parameter
        with pytest.raises(TypeError, match="snapshot_budget"):
            IncrementalExecutor(snapshot_budget=-1)
