"""Integration tests for the LucidScript facade (Definition 4.5 end to end)."""

import pytest

from repro.core import (
    LSConfig,
    LucidScript,
    ModelPerformanceIntent,
    StandardizationError,
    TableJaccardIntent,
)
from repro.core.intent import ACCURACY_CACHE, table_fingerprint
from repro.corpus import RetrievalIndex
from repro.sandbox import IncrementalExecutor, run_script


@pytest.fixture()
def system(diabetes_corpus, diabetes_dir):
    return LucidScript(
        diabetes_corpus,
        data_dir=diabetes_dir,
        intent=TableJaccardIntent(tau=0.5),
        config=LSConfig(seq=8, beam_size=2, sample_rows=150),
    )


class TestStandardize:
    def test_improves_alex_script(self, system, alex_script):
        result = system.standardize(alex_script)
        assert result.re_after <= result.re_before
        assert result.improvement >= 0.0

    def test_adds_common_corpus_steps(self, system, alex_script):
        result = system.standardize(alex_script)
        added = result.added_statements()
        assert "df = df[df['SkinThickness'] < 80]" in added or \
               "df = df.fillna(df.mean())" in added

    def test_output_is_executable(self, system, alex_script, diabetes_dir):
        from repro.sandbox import check_executes

        result = system.standardize(alex_script)
        assert check_executes(result.output_script, data_dir=diabetes_dir)

    def test_intent_constraint_reported_satisfied(self, system, alex_script):
        result = system.standardize(alex_script)
        assert result.intent_satisfied
        assert result.intent_delta >= 0.5

    def test_sequence_length_constraint(self, diabetes_corpus, diabetes_dir, alex_script):
        system = LucidScript(
            diabetes_corpus,
            data_dir=diabetes_dir,
            config=LSConfig(seq=2, beam_size=2, sample_rows=150),
        )
        result = system.standardize(alex_script)
        assert len(result.transformations) <= 2

    def test_corpus_member_needs_no_change(self, diabetes_corpus, diabetes_dir):
        system = LucidScript(
            diabetes_corpus[1:],
            data_dir=diabetes_dir,
            intent=TableJaccardIntent(tau=0.9),
            config=LSConfig(seq=4, beam_size=2, sample_rows=150),
        )
        result = system.standardize(diabetes_corpus[0])
        # already the majority script: little or nothing to improve
        assert result.improvement >= 0.0

    def test_input_must_execute(self, system):
        with pytest.raises(StandardizationError):
            system.standardize(
                "import pandas as pd\ndf = pd.read_csv('no_such_file_anywhere.csv')"
            )

    def test_input_must_have_statements(self, diabetes_corpus, diabetes_dir):
        system = LucidScript(diabetes_corpus, data_dir=diabetes_dir)
        with pytest.raises(StandardizationError):
            system.standardize("")

    def test_input_lemmatized_in_result(self, system):
        result = system.standardize(
            "import pandas as pd\n"
            'train = pd.read_csv("diabetes.csv")\n'
            "train = train.fillna(train.median())"
        )
        assert "df = pd.read_csv('diabetes.csv')" in result.input_script
        assert "train" not in result.input_script

    def test_strict_tau_limits_changes(self, diabetes_corpus, diabetes_dir, alex_script):
        strict = LucidScript(
            diabetes_corpus,
            data_dir=diabetes_dir,
            intent=TableJaccardIntent(tau=1.0),
            config=LSConfig(seq=8, beam_size=2, sample_rows=150),
        )
        relaxed = LucidScript(
            diabetes_corpus,
            data_dir=diabetes_dir,
            intent=TableJaccardIntent(tau=0.3),
            config=LSConfig(seq=8, beam_size=2, sample_rows=150),
        )
        strict_result = strict.standardize(alex_script)
        relaxed_result = relaxed.standardize(alex_script)
        assert relaxed_result.improvement >= strict_result.improvement - 1e-9

    def test_no_intent_measure_still_works(self, diabetes_corpus, diabetes_dir, alex_script):
        system = LucidScript(
            diabetes_corpus,
            data_dir=diabetes_dir,
            intent=None,
            config=LSConfig(seq=6, beam_size=2, sample_rows=150),
        )
        result = system.standardize(alex_script)
        assert result.intent_delta is None
        assert result.intent_satisfied

    def test_model_performance_intent(self, diabetes_corpus, diabetes_dir, alex_script):
        system = LucidScript(
            diabetes_corpus,
            data_dir=diabetes_dir,
            intent=ModelPerformanceIntent(target="Outcome", tau=5.0),
            config=LSConfig(seq=4, beam_size=1, sample_rows=150),
        )
        result = system.standardize(alex_script)
        assert result.intent_satisfied
        assert result.improvement >= 0.0

    def test_score_method(self, system, alex_script, diabetes_corpus):
        assert system.score(alex_script) > system.score(diabetes_corpus[0])


class TestWithoutDataFlowEdges:
    """RE is undefined for a script or a corpus without data-flow edges:
    score() and standardize() say so with a StandardizationError, on a
    curated corpus and on a retrieval pool alike."""

    SCRIPT = "y = 2\n"
    CORPUS = ["x = 1\n"]

    @staticmethod
    def _system(corpus, retrieval, data_dir):
        if retrieval:
            corpus = RetrievalIndex.from_scripts(corpus)
        return LucidScript(corpus, data_dir=data_dir, config=LSConfig(retrieval_k=3))

    @pytest.mark.parametrize("retrieval", [False, True], ids=["curated", "retrieval"])
    @pytest.mark.parametrize("op", ["score", "standardize"])
    def test_script_without_edges(self, diabetes_corpus, diabetes_dir, op, retrieval):
        system = self._system(diabetes_corpus, retrieval, diabetes_dir)
        with pytest.raises(StandardizationError) as excinfo:
            getattr(system, op)(self.SCRIPT)
        assert str(excinfo.value) == "script has no data-flow edges; RE is undefined"
        assert isinstance(excinfo.value.__cause__, ValueError)

    @pytest.mark.parametrize("retrieval", [False, True], ids=["curated", "retrieval"])
    @pytest.mark.parametrize("op", ["score", "standardize"])
    def test_corpus_without_edges(self, diabetes_dir, alex_script, op, retrieval):
        system = self._system(self.CORPUS, retrieval, diabetes_dir)
        with pytest.raises(StandardizationError) as excinfo:
            getattr(system, op)(alex_script)
        assert str(excinfo.value) == "corpus has no data-flow edges; RE is undefined"


class TestStandardizationResult:
    def test_removed_added_statements(self, system, alex_script):
        result = system.standardize(alex_script)
        input_lines = result.input_script.splitlines()
        for line in result.removed_statements():
            assert line in input_lines
        for line in result.added_statements():
            assert line in result.output_script.splitlines()

    def test_changed_flag(self, system, alex_script):
        result = system.standardize(alex_script)
        assert result.changed == (result.output_script != result.input_script)

    def test_summary_mentions_re(self, system, alex_script):
        summary = system.standardize(alex_script).summary()
        assert "RE:" in summary and "improvement" in summary

    def test_stats_breakdown_keys(self, system, alex_script):
        result = system.standardize(alex_script)
        assert "VerifyConstraints" in result.stats.breakdown()
        assert result.stats.verify_constraints_s > 0


INTENTS = {
    "jaccard": lambda: TableJaccardIntent(tau=0.5),
    "model": lambda: ModelPerformanceIntent(target="Outcome", tau=5.0),
}


class TestWinnerVerifiedOnce:
    """The verdict the verification walk computed for its winner is the
    one reported: the winner is run once, by the search's execution
    check, and never checked again."""

    @pytest.fixture()
    def runs(self, monkeypatch):
        """Every script the sandbox runs for the standardizer, in order:
        the search's checks and any run verification makes itself."""
        ran = []
        real_run = IncrementalExecutor.run_script

        def spy(executor, source, extra_globals=None, *, segments=None):
            ran.append(source)
            return real_run(executor, source, extra_globals, segments=segments)

        monkeypatch.setattr(IncrementalExecutor, "run_script", spy)
        return ran

    def _standardize(self, corpus, data_dir, script, kind):
        system = LucidScript(
            corpus,
            data_dir=data_dir,
            intent=INTENTS[kind](),
            config=LSConfig(seq=4, beam_size=2, sample_rows=150),
        )
        return system.standardize(script)

    @staticmethod
    def _cold_output(source, data_dir):
        return run_script(source, data_dir=data_dir, sample_rows=150).output

    @pytest.mark.parametrize("kind", sorted(INTENTS))
    def test_reported_verdict_matches_fresh_check(
        self, kind, runs, diabetes_corpus, diabetes_dir, alex_script
    ):
        result = self._standardize(diabetes_corpus, diabetes_dir, alex_script, kind)
        assert result.changed
        assert runs.count(result.output_script) == 1
        fresh = INTENTS[kind]().check(
            self._cold_output(result.input_script, diabetes_dir),
            self._cold_output(result.output_script, diabetes_dir),
        )
        assert fresh == (result.intent_delta, result.intent_satisfied)

    def test_model_winner_trained_once(
        self, monkeypatch, diabetes_corpus, diabetes_dir, alex_script
    ):
        import repro.core.intent as intent_mod

        trained = []
        real = intent_mod.evaluate_downstream

        def counted(frame, target, **kwargs):
            trained.append(table_fingerprint(frame))
            return real(frame, target, **kwargs)

        monkeypatch.setattr(intent_mod, "evaluate_downstream", counted)
        # the process-wide accuracy memo may hold these tables already
        ACCURACY_CACHE.clear()
        result = self._standardize(
            diabetes_corpus, diabetes_dir, alex_script, "model"
        )
        assert result.changed
        winner = table_fingerprint(
            self._cold_output(result.output_script, diabetes_dir)
        )
        original = table_fingerprint(
            self._cold_output(result.input_script, diabetes_dir)
        )
        assert winner != original  # no short circuit: the winner is trained
        assert trained.count(winner) == 1
        assert trained.count(original) == 1

        # a second search over the same tables, by a new system, trains
        # nothing and reports the same result
        trained.clear()
        again = self._standardize(
            diabetes_corpus, diabetes_dir, alex_script, "model"
        )
        assert trained == []
        assert (again.output_script, again.intent_delta, again.intent_satisfied) == (
            result.output_script, result.intent_delta, result.intent_satisfied
        )
