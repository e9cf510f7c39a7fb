"""Each candidate runs once per ``standardize()`` call.

With early checking on, the search's execution check runs every
candidate that enters a beam and keeps its output table; constraint
verification takes the table from there instead of running the candidate
again.  Without a kept table (``early_check`` off, an ``exec_checker``
fake, an evicted entry) verification runs the candidate itself, with the
same results.
"""

from collections import Counter

import pytest

import repro.core.standardizer as standardizer_mod
from repro.core import (
    BeamSearch,
    LSConfig,
    LucidScript,
    ModelPerformanceIntent,
    TableJaccardIntent,
)
from repro.core.intent import table_fingerprint
from repro.harness import make_intent
from repro.lang import parse_script
from repro.sandbox import IncrementalExecutor, check_executes, run_script

SAMPLE_ROWS = 150


def _diabetes_intent(kind):
    if kind == "jaccard":
        return TableJaccardIntent(tau=0.5)
    return ModelPerformanceIntent(target="Outcome", tau=5.0)


@pytest.fixture()
def executed(monkeypatch):
    """Every source the sandbox runs through an incremental executor."""
    sources = []
    real = IncrementalExecutor.run_script

    def spy(executor, source, extra_globals=None, *, segments=None):
        sources.append(source)
        return real(executor, source, extra_globals, segments=segments)

    monkeypatch.setattr(IncrementalExecutor, "run_script", spy)
    return sources


@pytest.fixture()
def taken(monkeypatch):
    """Every (source, table) verification took from the search."""
    tables = []
    real = BeamSearch.take_output

    def spy(search, source):
        output = real(search, source)
        if output is not None:
            tables.append((source, output))
        return output

    monkeypatch.setattr(BeamSearch, "take_output", spy)
    return tables


@pytest.fixture()
def fallback_runs(monkeypatch):
    """Every source verification (or the input check) ran itself."""
    sources = []
    real = LucidScript._run

    def spy(system, source, segments=None):
        sources.append(source)
        return real(system, source, segments)

    monkeypatch.setattr(LucidScript, "_run", spy)
    return sources


def _diabetes(corpus, data_dir, script, kind, **config):
    system = LucidScript(
        corpus,
        data_dir=data_dir,
        intent=_diabetes_intent(kind),
        config=LSConfig(seq=6, beam_size=2, sample_rows=SAMPLE_ROWS, **config),
    )
    return system.standardize(script)


def _held_out(corpus, kind, index=0):
    user = corpus.scripts[index]
    rest = corpus.scripts[:index] + corpus.scripts[index + 1:]
    system = LucidScript(
        rest,
        data_dir=corpus.data_dir,
        intent=make_intent(kind, corpus),
        config=LSConfig(seq=4, beam_size=3, sample_rows=SAMPLE_ROWS),
    )
    return system.standardize(user)


def _outcome(result):
    return (
        result.output_script,
        result.transformations,
        result.re_after,
        result.intent_delta,
        result.intent_satisfied,
    )


def _same_table(a, b):
    return (
        a.columns == b.columns
        and a.index.tolist() == b.index.tolist()
        and [a[c].dtype for c in a.columns] == [b[c].dtype for c in b.columns]
        and table_fingerprint(a) == table_fingerprint(b)
    )


KINDS = ("jaccard", "model")


class TestEachSourceRunsOnce:
    @pytest.mark.parametrize("kind", KINDS)
    def test_diabetes(self, kind, executed, diabetes_corpus, diabetes_dir, alex_script):
        result = _diabetes(diabetes_corpus, diabetes_dir, alex_script, kind)
        assert result.changed
        assert executed, "the search ran nothing"
        assert max(Counter(executed).values()) == 1
        assert executed[0] == result.input_script

    @pytest.mark.parametrize("kind", KINDS)
    def test_held_out_competition_script(self, kind, executed, medical_competition):
        _held_out(medical_competition, kind)
        assert max(Counter(executed).values()) == 1

    @pytest.mark.parametrize("kind", KINDS)
    def test_only_the_input_runs_outside_the_search(
        self, kind, fallback_runs, taken, diabetes_corpus, diabetes_dir, alex_script
    ):
        result = _diabetes(diabetes_corpus, diabetes_dir, alex_script, kind)
        assert fallback_runs == [result.input_script]
        assert len(taken) == result.stats.n_intent_checks
        assert result.output_script in [source for source, _ in taken]


class TestTakenTablesEqualColdRuns:
    @pytest.mark.parametrize("kind", KINDS)
    def test_diabetes(self, kind, taken, diabetes_corpus, diabetes_dir, alex_script):
        _diabetes(diabetes_corpus, diabetes_dir, alex_script, kind)
        assert taken
        for source, table in taken:
            cold = run_script(source, data_dir=diabetes_dir, sample_rows=SAMPLE_ROWS)
            assert cold.ok and _same_table(table, cold.output), source

    @pytest.mark.parametrize("kind", KINDS)
    def test_held_out_competition_scripts(self, kind, taken, titanic_competition):
        for index in range(3):
            _held_out(titanic_competition, kind, index)
        assert taken
        for source, table in taken:
            cold = run_script(
                source, data_dir=titanic_competition.data_dir, sample_rows=SAMPLE_ROWS
            )
            assert cold.ok and _same_table(table, cold.output), source


def _oracle_winner(corpus, data_dir, script, kind, **config):
    """The verification walk redone on cold runs and naive intent checks:
    the first archived candidate, in RE order, that executes and keeps
    the intent, else the input."""
    config = LSConfig(seq=6, beam_size=2, sample_rows=SAMPLE_ROWS, **config)
    system = LucidScript(corpus, data_dir=data_dir, config=config)
    dag = parse_script(script)
    search = BeamSearch(system.vocabulary, system.scorer, config, data_dir=data_dir)
    original = run_script(dag.normalized, data_dir=data_dir, sample_rows=SAMPLE_ROWS)
    intent = _diabetes_intent(kind)
    for candidate in search.search(dag.statements):
        source = candidate.source()
        if source == dag.normalized:
            return source
        run = run_script(source, data_dir=data_dir, sample_rows=SAMPLE_ROWS)
        if run.ok and run.output is not None and intent.check(original.output, run.output)[1]:
            return source
    raise AssertionError("the input is always a candidate")


class TestFallbacksGiveTheSameResults:
    """Where the search kept no table, verification runs the candidate,
    and the winner is the cold walk's."""

    @pytest.fixture()
    def reference(self, diabetes_corpus, diabetes_dir, alex_script):
        return {
            kind: _outcome(_diabetes(diabetes_corpus, diabetes_dir, alex_script, kind))
            for kind in KINDS
        }

    @pytest.mark.parametrize("kind", KINDS)
    def test_run_once_matches_the_cold_walk(
        self, kind, reference, diabetes_corpus, diabetes_dir, alex_script
    ):
        winner = _oracle_winner(diabetes_corpus, diabetes_dir, alex_script, kind)
        assert reference[kind][0] == winner

    @pytest.mark.parametrize("kind", KINDS)
    def test_early_check_off(
        self, kind, taken, fallback_runs, diabetes_corpus, diabetes_dir, alex_script
    ):
        result = _diabetes(
            diabetes_corpus, diabetes_dir, alex_script, kind, early_check=False
        )
        assert taken == []
        assert result.output_script in fallback_runs[1:]
        assert result.output_script == _oracle_winner(
            diabetes_corpus, diabetes_dir, alex_script, kind, early_check=False
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_exec_checker_fake(
        self, kind, reference, monkeypatch, taken, fallback_runs,
        diabetes_corpus, diabetes_dir, alex_script,
    ):
        def checker(source):
            return check_executes(source, data_dir=diabetes_dir, sample_rows=SAMPLE_ROWS)

        monkeypatch.setattr(
            standardizer_mod,
            "BeamSearch",
            lambda *a, **k: BeamSearch(*a, exec_checker=checker, **k),
        )
        result = _diabetes(diabetes_corpus, diabetes_dir, alex_script, kind)
        assert taken == []
        assert result.output_script in fallback_runs[1:]
        assert _outcome(result) == reference[kind]

    @pytest.mark.parametrize("kind", KINDS)
    def test_one_entry_output_cache(
        self, kind, reference, monkeypatch, taken, fallback_runs,
        diabetes_corpus, diabetes_dir, alex_script,
    ):
        def build(*args, **kwargs):
            search = BeamSearch(*args, **kwargs)
            search._outputs.resize(1)
            return search

        monkeypatch.setattr(standardizer_mod, "BeamSearch", build)
        result = _diabetes(diabetes_corpus, diabetes_dir, alex_script, kind)
        # each candidate the walk checked got its table once: the one
        # still held, or an evicted one from a run of its own
        assert len(taken) <= 1
        assert len(taken) + len(fallback_runs) - 1 == result.stats.n_intent_checks
        assert _outcome(result) == reference[kind]
