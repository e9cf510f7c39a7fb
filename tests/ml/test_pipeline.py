"""Tests for the downstream-evaluation pipeline (the Δ_M oracle)."""

import numpy as np
import pytest

from repro.minipandas import NA, DataFrame
from repro.ml import (
    DownstreamEvaluationError,
    evaluate_downstream,
    prepare_features,
)


def make_classification_frame(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x1 = rng.normal(0, 1, n)
    x2 = rng.normal(0, 1, n)
    y = (x1 + 0.5 * x2 + rng.normal(0, 0.3, n) > 0).astype(int)
    sex = rng.choice(["m", "f"], size=n)
    return DataFrame(
        {"x1": x1.tolist(), "x2": x2.tolist(), "sex": sex.tolist(), "y": y.tolist()}
    )


class TestPrepareFeatures:
    def test_shapes(self):
        frame = make_classification_frame()
        X, y = prepare_features(frame, "y")
        assert X.shape[0] == len(y) == 200
        # x1, x2 numeric + sex one-hot (2 categories)
        assert X.shape[1] == 4

    def test_missing_target_column_raises(self):
        with pytest.raises(DownstreamEvaluationError):
            prepare_features(DataFrame({"a": [1] * 20}), "y")

    def test_rows_with_missing_target_dropped(self):
        frame = make_classification_frame(50)
        frame["y"] = [NA] * 10 + frame["y"].tolist()[10:]
        X, y = prepare_features(frame, "y")
        assert len(y) == 40

    def test_too_few_target_rows_raises(self):
        frame = DataFrame({"a": [1.0] * 12, "y": [NA] * 8 + [1, 0, 1, 0]})
        with pytest.raises(DownstreamEvaluationError):
            prepare_features(frame, "y")

    def test_high_cardinality_object_dropped(self):
        frame = make_classification_frame(60)
        frame["id"] = [f"id-{i}" for i in range(60)]
        X, _ = prepare_features(frame, "y")
        assert X.shape[1] == 4  # id contributed nothing

    def test_missing_feature_values_imputed(self):
        frame = make_classification_frame(60)
        frame["x1"] = [NA] * 5 + frame["x1"].tolist()[5:]
        X, _ = prepare_features(frame, "y")
        assert not np.isnan(X).any()

    def test_no_features_raises(self):
        frame = DataFrame({"y": [0, 1] * 10})
        with pytest.raises(DownstreamEvaluationError):
            prepare_features(frame, "y")

    def test_all_nan_feature_column_skipped(self):
        frame = DataFrame({"a": [NA] * 20, "b": [1.0] * 20, "y": [0, 1] * 10})
        X, _ = prepare_features(frame, "y")
        assert X.shape[1] == 1


class TestEvaluateDownstream:
    def test_classification_learns(self):
        result = evaluate_downstream(make_classification_frame(), "y")
        assert result.task == "classification"
        assert result.accuracy > 0.8

    def test_deterministic(self):
        frame = make_classification_frame()
        a = evaluate_downstream(frame, "y").accuracy
        b = evaluate_downstream(frame, "y").accuracy
        assert a == b

    def test_regression(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, 150)
        frame = DataFrame(
            {"x": x.tolist(), "t": (3 * x + rng.normal(0, 0.1, 150)).tolist()}
        )
        result = evaluate_downstream(frame, "t")
        assert result.task == "regression"
        assert result.accuracy > 0.9  # clipped R^2

    def test_explicit_task_overrides_inference(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, 100)
        frame = DataFrame({"x": x.tolist(), "t": (x > 0).astype(int).tolist()})
        result = evaluate_downstream(frame, "t", task="regression")
        assert result.task == "regression"

    def test_unknown_task_raises(self):
        with pytest.raises(ValueError):
            evaluate_downstream(make_classification_frame(), "y", task="clustering")

    def test_row_cap_applies(self):
        frame = make_classification_frame(3000)
        result = evaluate_downstream(frame, "y")
        assert result.n_rows == 2000

    def test_accuracy_responds_to_label_noise(self):
        clean = make_classification_frame(400, seed=3)
        noisy = clean.copy()
        rng = np.random.default_rng(4)
        flipped = [
            1 - v if rng.random() < 0.4 else v for v in noisy["y"]
        ]
        noisy["y"] = flipped
        acc_clean = evaluate_downstream(clean, "y").accuracy
        acc_noisy = evaluate_downstream(noisy, "y").accuracy
        assert acc_clean > acc_noisy + 0.05

    def test_target_leakage_inflates_accuracy(self):
        frame = make_classification_frame(300, seed=5)
        leaky = frame.copy()
        leaky["y_copy"] = leaky["y"]
        acc_base = evaluate_downstream(frame, "y").accuracy
        acc_leaky = evaluate_downstream(leaky, "y").accuracy
        assert acc_leaky >= acc_base

    def test_multiclass_string_target_raises(self):
        frame = DataFrame(
            {"a": [1.0] * 30, "y": (["p", "q", "r"] * 10)}
        )
        with pytest.raises(DownstreamEvaluationError):
            evaluate_downstream(frame, "y")
