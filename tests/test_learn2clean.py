"""Tests for the Learn2Clean-style RL pipeline optimizer."""

import numpy as np
import pytest

from repro.baselines import Learn2Clean, Learn2CleanAgent, QualityState
from repro.minipandas import NA, DataFrame
from repro.ml import evaluate_downstream
from repro.sandbox import run_script


def make_dirty_frame(n=300, seed=0):
    """A classification table with missing values, outliers, duplicates,
    and an unencoded categorical — plenty for a cleaner to do."""
    rng = np.random.default_rng(seed)
    x1 = rng.normal(0, 1, n)
    x2 = rng.normal(0, 1, n)
    group = rng.choice(["a", "b", "c"], size=n)
    y = (x1 + 0.6 * x2 + (group == "a") + rng.normal(0, 0.3, n) > 0.4).astype(int)
    x1_vals = x1.tolist()
    for pos in range(0, n, 13):
        x1_vals[pos] = NA  # missing
    for pos in range(5, n, 41):
        x1_vals[pos] = 250.0  # wild outliers
    return DataFrame(
        {
            "x1": x1_vals,
            "x2": x2.tolist(),
            "group": group.tolist(),
            "y": y.tolist(),
        }
    )


class TestQualityState:
    def test_detects_missing(self):
        frame = DataFrame({"a": [1.0, NA], "y": [0, 1]})
        assert QualityState.of(frame, "y").has_missing

    def test_detects_duplicates(self):
        frame = DataFrame({"a": [1.0, 1.0], "y": [0, 0]})
        assert QualityState.of(frame, "y").has_duplicates

    def test_detects_outliers(self):
        values = [0.0] * 30 + [1.0] * 30 + [500.0]
        frame = DataFrame({"a": values, "y": [0, 1] * 30 + [1]})
        assert QualityState.of(frame, "y").has_outliers

    def test_detects_categoricals(self):
        frame = DataFrame({"g": ["a", "b"], "y": [0, 1]})
        assert QualityState.of(frame, "y").has_categoricals

    def test_clean_table_is_all_false(self):
        frame = DataFrame({"a": [float(i) for i in range(20)], "y": [0, 1] * 10})
        state = QualityState.of(frame, "y")
        assert not state.has_missing
        assert not state.has_duplicates
        assert not state.has_categoricals

    def test_target_excluded_from_profile(self):
        frame = DataFrame({"a": [1.0, 2.0], "y": [NA, 1.0]})
        assert not QualityState.of(frame, "y").has_missing


class TestAgent:
    def test_fit_learns_q_values(self):
        agent = Learn2CleanAgent(target="y", n_episodes=5, max_steps=3)
        agent.fit(make_dirty_frame(150))
        assert len(agent.q_table) > 0

    def test_missing_target_raises(self):
        with pytest.raises(ValueError):
            Learn2CleanAgent(target="zzz").fit(make_dirty_frame(50))

    def test_recommend_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            Learn2CleanAgent(target="y").recommend(make_dirty_frame(50))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Learn2CleanAgent(target="y", max_steps=0)
        with pytest.raises(ValueError):
            Learn2CleanAgent(target="y", n_episodes=0)

    def test_recommend_is_bounded_and_loop_free(self):
        agent = Learn2CleanAgent(target="y", n_episodes=8, max_steps=4)
        frame = make_dirty_frame(200)
        pipeline = agent.fit(frame).recommend(frame)
        assert len(pipeline) <= 4
        names = [a.name for a in pipeline]
        assert len(names) == len(set(names))

    def test_pipeline_does_not_hurt_accuracy(self):
        frame = make_dirty_frame(300)
        agent = Learn2CleanAgent(target="y", n_episodes=20, max_steps=4)
        pipeline = agent.fit(frame).recommend(frame)
        working = frame
        for action in pipeline:
            working = action.transform(working)
        before = evaluate_downstream(frame, "y").accuracy
        after = evaluate_downstream(working, "y").accuracy
        assert after >= before - 0.05

    def test_deterministic_given_seed(self):
        frame = make_dirty_frame(150)
        # exploration is seeded with the module's RANDOM_STATE
        a = Learn2CleanAgent(target="y", n_episodes=6).fit(frame)
        b = Learn2CleanAgent(target="y", n_episodes=6).fit(frame)
        assert a.q_table == b.q_table


class TestBaselineIntegration:
    @pytest.fixture()
    def dirty_dir(self, tmp_path):
        make_dirty_frame(300).to_csv(str(tmp_path / "train.csv"))
        return str(tmp_path)

    def test_rewrite_produces_executable_script(self, dirty_dir):
        baseline = Learn2Clean(data_dir=dirty_dir, target="y", n_episodes=8)
        script = "import pandas as pd\ndf = pd.read_csv('train.csv')"
        rewritten = baseline.rewrite(script, [])
        result = run_script(rewritten, data_dir=dirty_dir, sample_rows=200)
        assert result.ok, result.error
        assert "y = df['y']" in rewritten

    def test_pipeline_cached_across_rewrites(self, dirty_dir):
        baseline = Learn2Clean(data_dir=dirty_dir, target="y", n_episodes=5)
        script = "import pandas as pd\ndf = pd.read_csv('train.csv')"
        first = baseline.rewrite(script, [])
        second = baseline.rewrite(script, [])
        assert first == second

    def test_broken_load_returns_input(self, tmp_path):
        baseline = Learn2Clean(data_dir=str(tmp_path), target="y", n_episodes=3)
        script = "import pandas as pd\ndf = pd.read_csv('missing.csv')"
        assert baseline.rewrite(script, []) == script
