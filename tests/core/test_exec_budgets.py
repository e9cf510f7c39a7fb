"""Execution budgets inside the search: a pathological candidate is
skipped within its budget, the search completes, and the outcome matches
a search that simply excluded the candidate.  Also covers the LSConfig
knobs and the executor's timeout count."""

import time

import pytest

from repro.core import BeamSearch, LSConfig, LucidScript, StandardizationError
from repro.core.entropy import RelativeEntropyScorer
from repro.lang import CorpusVocabulary, parse_script
from repro.sandbox import IncrementalExecutor

from ..faults import FaultInjectingExecutor

#: The fillna-with-mean statement every corpus script shares — present in
#: real candidates, absent from the input script (which uses median), so
#: sabotaging it hits genuine search-generated candidates.
TARGET_STATEMENT = "df = df.fillna(df.mean())"

BUDGET_S = 0.3


@pytest.fixture()
def vocab(diabetes_corpus):
    return CorpusVocabulary.from_scripts(diabetes_corpus)


@pytest.fixture()
def scorer(vocab):
    return RelativeEntropyScorer(vocab)


def config(**kwargs):
    defaults = dict(seq=6, beam_size=2, sample_rows=100)
    defaults.update(kwargs)
    return LSConfig(**defaults)


class TestLSConfigKnobs:
    def test_budgets_default_off(self):
        assert LSConfig().exec_timeout_s is None

    @pytest.mark.parametrize("value", [0, -1, -0.5])
    def test_nonpositive_exec_timeout_rejected(self, value):
        with pytest.raises(ValueError):
            LSConfig(exec_timeout_s=value)

    @pytest.mark.parametrize("value", [0, -2])
    def test_nonpositive_statement_timeout_rejected(self, value):
        # the per-statement budget is gone: every value is refused
        with pytest.raises(TypeError, match="statement_timeout_s"):
            LSConfig(statement_timeout_s=value)

    def test_executor_inherits_budgets(self, vocab, scorer, diabetes_dir):
        search = BeamSearch(
            vocab,
            scorer,
            config(exec_timeout_s=5.0),
            data_dir=diabetes_dir,
        )
        assert search._executor.exec_timeout_s == 5.0


class TestHungCandidateIsSkipped:
    def test_search_completes_and_matches_exclusion(
        self, vocab, scorer, diabetes_dir, alex_script
    ):
        statements = parse_script(alex_script).statements

        # sabotage: every candidate containing the target statement hangs
        # (fault appended last, so the hang is reached on every check)
        saboteur = FaultInjectingExecutor(
            data_dir=diabetes_dir,
            sample_rows=100,
            match=TARGET_STATEMENT,
            kind="hang",
            position=10**9,
            exec_timeout_s=BUDGET_S,
        )
        faulted_search = BeamSearch(
            vocab,
            scorer,
            config(exec_timeout_s=BUDGET_S),
            data_dir=diabetes_dir,
            executor=saboteur,
        )
        start = time.monotonic()
        faulted = [c.source() for c in faulted_search.search(statements)]
        elapsed = time.monotonic() - start

        assert saboteur.injected_sources, "the fault never hit a candidate"
        # each hang is interrupted within its budget, so the whole search
        # stays within a small multiple of (#injections x budget)
        assert elapsed < (len(saboteur.injected_sources) + 4) * BUDGET_S * 4

        # every hang was interrupted and counted by the executor
        assert saboteur.stats.timeouts >= len(saboteur.injected_sources)

        # timing out is exactly "the candidate fails CheckIfExecutes":
        # an oracle that rejects those candidates yields the same result
        probe = IncrementalExecutor(data_dir=diabetes_dir, sample_rows=100)

        def reject_target(source):
            if TARGET_STATEMENT in source:
                return False
            return probe.check_executes(source)

        excluding_search = BeamSearch(
            vocab,
            scorer,
            config(),
            data_dir=diabetes_dir,
            exec_checker=reject_target,
        )
        excluded = [c.source() for c in excluding_search.search(statements)]
        assert faulted == excluded

    def test_timed_out_candidate_actually_mattered(
        self, vocab, scorer, diabetes_dir, alex_script
    ):
        statements = parse_script(alex_script).statements
        baseline_search = BeamSearch(
            vocab, scorer, config(), data_dir=diabetes_dir
        )
        baseline = [c.source() for c in baseline_search.search(statements)]
        saboteur = FaultInjectingExecutor(
            data_dir=diabetes_dir,
            sample_rows=100,
            match=TARGET_STATEMENT,
            kind="hang",
            position=10**9,
            exec_timeout_s=BUDGET_S,
        )
        faulted_search = BeamSearch(
            vocab,
            scorer,
            config(exec_timeout_s=BUDGET_S),
            data_dir=diabetes_dir,
            executor=saboteur,
        )
        faulted = [c.source() for c in faulted_search.search(statements)]
        # the sabotaged statement appears in the baseline's winners, so
        # skipping it visibly changes the outcome (the skip is not a no-op)
        assert any(TARGET_STATEMENT in source for source in baseline)
        assert all(TARGET_STATEMENT not in source for source in faulted)
        assert faulted != baseline


class TestBudgetsDisabledIsBitIdentical:
    def test_generous_budget_matches_no_budget(
        self, vocab, scorer, diabetes_dir, alex_script
    ):
        statements = parse_script(alex_script).statements
        plain = BeamSearch(vocab, scorer, config(), data_dir=diabetes_dir)
        budgeted = BeamSearch(
            vocab,
            scorer,
            config(exec_timeout_s=30.0),
            data_dir=diabetes_dir,
        )
        plain_out = [(c.source(), c.score) for c in plain.search(statements)]
        budget_out = [(c.source(), c.score) for c in budgeted.search(statements)]
        assert plain_out == budget_out
        assert budgeted._executor.stats.timeouts == 0


class TestStandardizerBudgets:
    def test_end_to_end_with_generous_budget_matches_default(
        self, diabetes_corpus, diabetes_dir, alex_script
    ):
        plain = LucidScript(
            diabetes_corpus, data_dir=diabetes_dir, config=config()
        )
        budgeted = LucidScript(
            diabetes_corpus,
            data_dir=diabetes_dir,
            config=config(exec_timeout_s=30.0),
        )
        a = plain.standardize(alex_script)
        b = budgeted.standardize(alex_script)
        assert a.output_script == b.output_script
        assert a.re_after == b.re_after
        assert budgeted._executor.stats.timeouts == 0

    def test_an_input_out_of_budget_is_named_as_such(
        self, diabetes_corpus, diabetes_dir, alex_script
    ):
        """An input that runs out of time is not reported as a script
        that does not execute."""
        system = LucidScript(
            diabetes_corpus,
            data_dir=diabetes_dir,
            config=config(exec_timeout_s=1e-6),
        )
        with pytest.raises(StandardizationError) as excinfo:
            system.standardize(alex_script)
        message = str(excinfo.value)
        assert "1e-06s execution budget" in message
        assert "must execute" not in message
