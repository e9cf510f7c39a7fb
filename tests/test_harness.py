"""Tests for the experiment harness (leave-one-out drivers, user study,
reporting)."""

import os
import subprocess
import sys

import pytest

from repro.baselines import SyntaxCleaner, gpt4
from repro.core import LSConfig, LucidScript
from repro.harness import (
    ImprovementStats,
    StudyOutcome,
    evaluate_baseline,
    evaluate_lucidscript,
    make_intent,
    render_histogram,
    render_series,
    render_table,
    run_user_study,
    significance_against,
)
from repro.harness.user_study import RaterPanel


class TestImprovementStats:
    def test_summary_fields(self):
        stats = ImprovementStats.from_values([0.0, 10.0, 20.0, 50.0])
        assert stats.minimum == 0.0
        assert stats.maximum == 50.0
        assert stats.median == 15.0
        assert stats.mean == 20.0
        assert stats.n == 4

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ImprovementStats.from_values([])

    def test_row_rounding(self):
        row = ImprovementStats.from_values([33.333]).row()
        assert row["median"] == 33.3


class TestEvaluateLucidScript:
    def test_leave_one_out_run(self, medical_competition):
        run = evaluate_lucidscript(
            medical_competition,
            intent_kind="jaccard",
            config=LSConfig(seq=4, beam_size=1, sample_rows=120),
            max_scripts=3,
        )
        assert len(run.improvements) == 3
        assert all(v >= 0.0 for v in run.improvements)
        assert run.method == "LS (jaccard)"

    def test_model_intent_run(self, medical_competition):
        run = evaluate_lucidscript(
            medical_competition,
            intent_kind="model",
            tau=2.0,
            config=LSConfig(seq=3, beam_size=1, sample_rows=120),
            max_scripts=2,
        )
        assert len(run.improvements) == 2
        assert all(v >= 0.0 for v in run.improvements)

    def test_corpus_override(self, medical_competition, titanic_competition):
        run = evaluate_lucidscript(
            medical_competition,
            intent_kind="jaccard",
            config=LSConfig(seq=3, beam_size=1, sample_rows=120),
            max_scripts=2,
            corpus_override=titanic_competition.scripts,
        )
        assert len(run.improvements) == 2

    def test_retrieval_pool_run(self, medical_competition):
        # the retrieve-then-compute path: the leave-one-out remainder
        # becomes a RetrievalIndex pool, every query audited for
        # exactness against brute-force scoring (with every other audit)
        run = evaluate_lucidscript(
            medical_competition,
            intent_kind="jaccard",
            config=LSConfig(
                seq=3, beam_size=1, sample_rows=120, audit=True
            ),
            max_scripts=2,
            retrieval_k=3,
        )
        assert len(run.improvements) == 2
        assert all(v >= 0.0 for v in run.improvements)
        assert any(b.get("RetrievalQueries") for b in run.breakdowns)

    def test_retrieval_k_leaves_the_callers_config_alone(
        self, medical_competition, monkeypatch
    ):
        seen = []
        real_init = LucidScript.__init__

        def spy(system, *args, **kwargs):
            seen.append(kwargs["config"].retrieval_k)
            real_init(system, *args, **kwargs)

        monkeypatch.setattr(LucidScript, "__init__", spy)
        config = LSConfig(seq=3, beam_size=1, sample_rows=120)
        evaluate_lucidscript(
            medical_competition, config=config, max_scripts=1, retrieval_k=3
        )
        assert seen == [3]  # the run used the requested k ...
        assert config.retrieval_k == LSConfig().retrieval_k  # ... on a copy

    def test_retrieval_k_is_validated_before_any_pair_runs(
        self, medical_competition, monkeypatch
    ):
        ran = []
        monkeypatch.setattr(
            LucidScript, "standardize", lambda system, script: ran.append(script)
        )
        with pytest.raises(ValueError, match="retrieval_k must be >= 1, got 0"):
            evaluate_lucidscript(
                medical_competition,
                config=LSConfig(seq=3, beam_size=1, sample_rows=120),
                max_scripts=1,
                retrieval_k=0,
            )
        assert ran == []

    def test_breakdowns_recorded(self, medical_competition):
        run = evaluate_lucidscript(
            medical_competition,
            config=LSConfig(seq=3, beam_size=1, sample_rows=120),
            max_scripts=2,
        )
        breakdown = run.median_breakdown()
        assert "GetSteps" in breakdown
        assert all(v >= 0 for v in breakdown.values())

    def test_unknown_intent_kind(self, medical_competition):
        with pytest.raises(ValueError):
            make_intent("bogus", medical_competition)

    def test_make_intent_defaults(self, medical_competition):
        jaccard = make_intent("jaccard", medical_competition)
        assert jaccard.tau == 0.9
        model = make_intent("model", medical_competition)
        assert model.tau == 1.0
        assert model.target == "Outcome"


class TestEvaluateBaseline:
    def test_sourcery_is_all_zero(self, medical_competition):
        run = evaluate_baseline(SyntaxCleaner(), medical_competition, max_scripts=4)
        assert run.stats().minimum == 0.0
        assert run.stats().maximum == 0.0

    def test_gpt_has_variance(self, medical_competition):
        run = evaluate_baseline(gpt4(seed=0), medical_competition, max_scripts=10)
        assert run.stats().minimum <= run.stats().maximum
        assert len(run.output_scripts) == 10


class TestUserStudy:
    def test_panel_rates_in_range(self):
        panel = RaterPanel(seed=0)
        ratings = panel.rate(0.7)
        assert len(ratings) == 34
        assert all(1.0 <= r <= 5.0 for r in ratings)

    def test_panel_monotone_in_quality(self):
        low = sum(RaterPanel(seed=0).rate(0.1)) / 34
        high = sum(RaterPanel(seed=0).rate(0.9)) / 34
        assert high > low

    def test_panel_needs_two_raters(self):
        with pytest.raises(ValueError):
            RaterPanel(n_raters=1)

    def test_study_prefers_corpus_aligned_script(self, diabetes_corpus):
        outputs = {
            "LS": diabetes_corpus[0],
            "GPT-4": "import pandas as pd\ndf = pd.read_csv('diabetes.csv')\ndf = df.dropna()\ndf = df.reset_index(drop=True)",
        }
        outcomes = run_user_study(outputs, diabetes_corpus, seed=0)
        assert outcomes["LS"].mean_standard > outcomes["GPT-4"].mean_standard

    def test_significance_returns_pvalues(self, diabetes_corpus):
        outputs = {
            "LS": diabetes_corpus[0],
            "Sourcery": "import pandas as pd\ndf = pd.read_csv('diabetes.csv')\nx = 1\ny = 2\nz = 3",
        }
        outcomes = run_user_study(outputs, diabetes_corpus, seed=0)
        pvalues = significance_against(outcomes, ls_method="LS")
        assert set(pvalues) == {"Sourcery"}
        assert 0.0 <= pvalues["Sourcery"] <= 1.0

    def test_significance_keeps_its_pvalues(self):
        """Welch's t-test, as the scipy call has always computed it."""
        outcomes = {
            "LS": StudyOutcome("LS", [4.5, 4.0, 5.0, 3.5, 4.2, 4.8], []),
            "A": StudyOutcome("A", [2.0, 3.1, 2.5, 3.0, 2.2, 1.5], []),
            "B": StudyOutcome("B", [4.4, 3.9, 4.8, 3.6, 4.0, 4.1], []),
        }
        pvalues = significance_against(outcomes)
        assert {method: p.hex() for method, p in pvalues.items()} == {
            "A": "0x1.765e95c220406p-13",
            "B": "0x1.fb81ed09a7fa1p-2",
        }

    def test_importing_the_package_loads_no_scipy(self):
        """Only the t-test needs scipy, which costs more start-up time and
        memory than the rest of the package; it is imported on its first
        call."""
        code = (
            "import sys, repro, repro.harness, repro.cli, repro.server.engine\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_study_requires_ls(self, diabetes_corpus):
        with pytest.raises(KeyError):
            run_user_study({"GPT-4": "x = 1"}, diabetes_corpus)

    def test_intent_blend_changes_helpfulness(self, diabetes_corpus):
        outputs = {"LS": diabetes_corpus[0], "Other": diabetes_corpus[1]}
        cold = run_user_study(outputs, diabetes_corpus, seed=0)
        with_intent = run_user_study(
            outputs,
            diabetes_corpus,
            intent_preservation={"LS": 1.0, "Other": 0.0},
            seed=0,
        )
        assert (
            with_intent["Other"].mean_helpful < cold["Other"].mean_helpful + 1e-9
        )


class TestReporting:
    def test_render_table_alignment(self):
        out = render_table(["a", "bb"], [[1, 2], [33, 4]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_render_histogram_counts(self):
        out = render_histogram([1, 1, 2, 9], bins=[0, 5, 10], title="H")
        assert "3" in out and "1" in out

    def test_render_series(self):
        out = render_series([(2, 10.0), (4, 20.0)], "seq", "improvement")
        assert "seq" in out and "20.0" in out
