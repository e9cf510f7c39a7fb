"""The downstream pipeline is bit-identical to its reference forms.

``tests/ml/reference.py`` keeps the per-value feature conversion and the
textbook gradient step as oracles.  Every comparison here is on bytes
(or ``==`` on floats), never approximate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LSConfig
from repro.minipandas import NA, DataFrame
from repro.ml import (
    DownstreamEvaluationError,
    LogisticRegression,
    evaluate_downstream,
    prepare_features,
)
from repro.sandbox import run_script
from repro.workloads import SPECS, build_competition

from .reference import (
    TextbookLogisticRegression,
    reference_evaluate_downstream,
    reference_prepare_features,
)


def fitted_bytes(model):
    return model.coef_.tobytes(), np.float64(model.intercept_).tobytes()


# ------------------------------------------------------------ gradient steps
def logistic_case(seed, n, d, constant=(), positive_rate=0.5, labels=(0, 1)):
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d)) * rng.uniform(0.1, 1e3, d)
    for col in constant:
        X[:, col] = 3.0
    score = X @ rng.normal(0, 1, d) + rng.normal(0, 1, n)
    cut = np.quantile(score, 1.0 - positive_rate)
    y = np.where(score >= cut, labels[1], labels[0])
    return X, y


class TestLogisticStepsMatchTextbook:
    @pytest.mark.parametrize("d", [1, 2, 5, 13, 40])
    @pytest.mark.parametrize("seed", range(3))
    def test_feature_counts(self, d, seed):
        X, y = logistic_case(seed, n=120 + 37 * seed, d=d)
        assert fitted_bytes(LogisticRegression().fit(X, y)) == fitted_bytes(
            TextbookLogisticRegression().fit(X, y)
        )

    def test_constant_columns(self):
        X, y = logistic_case(4, n=200, d=6, constant=(0, 3, 5))
        assert fitted_bytes(LogisticRegression().fit(X, y)) == fitted_bytes(
            TextbookLogisticRegression().fit(X, y)
        )

    @pytest.mark.parametrize("positive_rate", [0.02, 0.1, 0.97])
    def test_imbalanced_labels(self, positive_rate):
        X, y = logistic_case(5, n=400, d=8, positive_rate=positive_rate)
        assert fitted_bytes(LogisticRegression().fit(X, y)) == fitted_bytes(
            TextbookLogisticRegression().fit(X, y)
        )

    def test_string_labels(self):
        X, y = logistic_case(6, n=150, d=4, labels=("died", "survived"))
        model = LogisticRegression().fit(X, y)
        reference = TextbookLogisticRegression().fit(X, y)
        assert fitted_bytes(model) == fitted_bytes(reference)
        assert np.array_equal(model.predict(X), reference.predict(X))

    def test_other_hyperparameters(self):
        X, y = logistic_case(7, n=90, d=3)
        params = dict(learning_rate=0.05, n_iter=57, l2=0.3)
        assert fitted_bytes(LogisticRegression(**params).fit(X, y)) == fitted_bytes(
            TextbookLogisticRegression(**params).fit(X, y)
        )


# ------------------------------------------------------- feature conversion
def na_heavy_frame():
    n = 40
    return DataFrame({
        "int_gaps": [None if i % 3 == 0 else i for i in range(n)],
        "flags": [bool(i % 2) for i in range(n)],
        "flag_gaps": [None if i % 4 == 0 else bool(i % 3) for i in range(n)],
        "signed_zero": [-0.0 if i % 2 else NA for i in range(n)],
        "big_ints": [2 ** 53 + i for i in range(n)],
        "huge_ints": [(-1) ** i * (2 ** 64 + 3 * i) for i in range(n)],
        "mixed": [[1, 2.5, None, True, -0.0][i % 5] for i in range(n)],
        "all_na": [None] * n,
        "category": [["a", "b", None][i % 3] for i in range(n)],
        "free_text": [f"id{i}" for i in range(n)],
        "label": [None if i % 7 == 0 else i % 2 for i in range(n)],
    })


cell = st.one_of(
    st.none(),
    st.just(NA),
    st.just(-0.0),
    st.booleans(),
    st.integers(-(2 ** 70), 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=False),
    st.sampled_from(["u", "v"]),
)


class TestPrepareFeaturesMatchesPerValue:
    def test_na_heavy_frame(self):
        X, y = prepare_features(na_heavy_frame(), "label")
        want_X, want_y = reference_prepare_features(na_heavy_frame(), "label")
        assert X.dtype == want_X.dtype and X.shape == want_X.shape
        assert X.tobytes() == want_X.tobytes()
        assert y == want_y

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(cell, min_size=12, max_size=12), min_size=1, max_size=4))
    def test_generated_frames(self, columns):
        data = {f"c{i}": values for i, values in enumerate(columns)}
        data["label"] = [i % 2 for i in range(12)]
        frame = DataFrame(data)
        try:
            want = reference_prepare_features(frame, "label")
        except DownstreamEvaluationError:
            with pytest.raises(DownstreamEvaluationError):
                prepare_features(frame, "label")
            return
        X, y = prepare_features(frame, "label")
        assert X.tobytes() == want[0].tobytes() and X.shape == want[0].shape
        assert y == want[1]


# ------------------------------------------------- competitions, end to end
@pytest.fixture(scope="module")
def cold_outputs(tmp_path_factory):
    """Each competition's scripts, run cold: (competition, output) pairs."""
    root = str(tmp_path_factory.mktemp("competitions"))
    sample_rows = LSConfig().sample_rows
    outputs = []
    for name in sorted(SPECS):
        corpus = build_competition(
            name, root, seed=2, n_scripts=6, n_rows=min(SPECS[name].n_rows, 2400)
        )
        for script in corpus.scripts:
            result = run_script(script, data_dir=corpus.data_dir, sample_rows=sample_rows)
            if result.ok and result.output is not None:
                outputs.append((corpus, result.output))
    return outputs


def test_accuracies_match_reference_pipeline(cold_outputs):
    compared = 0
    for corpus, output in cold_outputs:
        for task, model in ((corpus.task, "logistic"), (None, "logistic"), (corpus.task, "tree")):
            try:
                want = reference_evaluate_downstream(
                    output, corpus.target, task=task, model=model
                )
            except ValueError:
                with pytest.raises(DownstreamEvaluationError):
                    evaluate_downstream(output, corpus.target, task=task, model=model)
                continue
            got = evaluate_downstream(output, corpus.target, task=task, model=model)
            assert got.accuracy == want, (corpus.name, task, model)
            compared += 1
    assert {corpus.name for corpus, _ in cold_outputs} == set(SPECS)
    assert compared >= 2 * len(cold_outputs)


# ------------------------------------------------------ unsupported targets
def feature_frame(target):
    n = len(target)
    return DataFrame({
        "x": [float(i % 7) for i in range(n)],
        "z": [i % 3 for i in range(n)],
        "label": target,
    })


class TestUnsupportedTargets:
    def test_multiclass_target_under_logistic_model(self):
        frame = feature_frame([[0, 1, -1][i % 3] for i in range(60)])
        with pytest.raises(DownstreamEvaluationError, match="binary"):
            evaluate_downstream(frame, "label", task="classification")
        # the tree handles any number of classes
        evaluate_downstream(frame, "label", task="classification", model="tree")

    @pytest.mark.parametrize("unknown", ["unknown", "n/a"])
    def test_mixed_string_int_target_when_task_inferred(self, unknown):
        frame = feature_frame([[0, 1, 2, unknown][i % 4] for i in range(60)])
        with pytest.raises(DownstreamEvaluationError, match="not numeric"):
            evaluate_downstream(frame, "label")

    def test_non_numeric_regression_target(self):
        frame = feature_frame([[0.5, 1.5, "x"][i % 3] for i in range(60)])
        with pytest.raises(DownstreamEvaluationError, match="not numeric"):
            evaluate_downstream(frame, "label", task="regression")

    def test_numeric_strings_still_regress(self):
        frame = feature_frame([[1, "2", 3, 4.5][i % 4] for i in range(60)])
        assert evaluate_downstream(frame, "label").task == "regression"


class TestUnhashableFeatureCells:
    def test_many_distinct_lists_are_dropped(self):
        frame = feature_frame([i % 2 for i in range(40)])
        with_lists = frame.copy()
        with_lists["parts"] = [["p", str(i)] for i in range(40)]
        X, _ = prepare_features(with_lists, "label")
        assert X.tobytes() == prepare_features(frame, "label")[0].tobytes()

    def test_few_distinct_lists_are_dummy_encoded(self):
        frame = feature_frame([i % 2 for i in range(40)])
        frame["parts"] = [[["a"], ["b", "c"], None][i % 3] for i in range(40)]
        X, _ = prepare_features(frame, "label")
        # x, z, and one indicator per distinct list
        assert X.shape == (40, 4)
