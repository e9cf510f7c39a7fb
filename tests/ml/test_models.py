"""Tests for the ML substrate: linear models, metrics, splitting."""

import numpy as np
import pytest

from repro.ml import (
    LinearRegression,
    LogisticRegression,
    accuracy_score,
    r2_score,
    train_test_split,
)


@pytest.fixture()
def separable():
    """A linearly separable 2-D binary problem."""
    rng = np.random.default_rng(0)
    n = 200
    X = rng.normal(0, 1, (n, 2))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return X, y


class TestLogisticRegression:
    def test_learns_separable_data(self, separable):
        X, y = separable
        model = LogisticRegression().fit(X, y)
        assert accuracy_score(y, model.predict(X)) > 0.95

    def test_deterministic(self, separable):
        X, y = separable
        a = LogisticRegression().fit(X, y).predict(X)
        b = LogisticRegression().fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_predict_proba_in_unit_interval(self, separable):
        X, y = separable
        proba = LogisticRegression().fit(X, y).predict_proba(X)
        assert proba.shape == (len(y), 2)
        assert np.all(proba >= 0) and np.all(proba <= 1)
        assert np.allclose(proba.sum(axis=1), 1.0)

    def test_string_labels(self):
        X = np.array([[0.0], [1.0], [0.1], [0.9]])
        y = np.array(["no", "yes", "no", "yes"])
        predictions = LogisticRegression().fit(X, y).predict(X)
        assert set(predictions) <= {"no", "yes"}

    def test_single_class_predicts_it(self):
        X = np.array([[1.0], [2.0]])
        model = LogisticRegression().fit(X, [1, 1])
        assert list(model.predict(X)) == [1, 1]

    def test_multiclass_raises(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((3, 1)), [0, 1, 2])

    def test_mismatched_rows_raise(self):
        with pytest.raises(ValueError):
            LogisticRegression().fit(np.zeros((3, 1)), [0, 1])

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LogisticRegression().predict(np.zeros((1, 1)))

    def test_scale_invariance_via_standardization(self, separable):
        X, y = separable
        base = accuracy_score(y, LogisticRegression().fit(X, y).predict(X))
        scaled = accuracy_score(
            y, LogisticRegression().fit(X * 1e4, y).predict(X * 1e4)
        )
        assert abs(base - scaled) < 0.05

    def test_constant_feature_tolerated(self, separable):
        X, y = separable
        X = np.column_stack([X, np.ones(len(y))])
        assert accuracy_score(y, LogisticRegression().fit(X, y).predict(X)) > 0.9

    def test_1d_input_reshaped(self):
        X = np.array([0.0, 0.1, 0.9, 1.0])
        y = np.array([0, 0, 1, 1])
        assert accuracy_score(y, LogisticRegression().fit(X, y).predict(X)) == 1.0


class TestLinearRegression:
    def test_recovers_exact_line(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([3.0, 5.0, 7.0])  # y = 2x + 1
        model = LinearRegression().fit(X, y)
        assert model.coef_[0] == pytest.approx(2.0, abs=1e-3)
        assert model.intercept_ == pytest.approx(1.0, abs=1e-3)

    def test_multifeature(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (100, 3))
        y = X @ np.array([1.0, -2.0, 0.5]) + 4
        model = LinearRegression().fit(X, y)
        assert np.allclose(model.coef_, [1.0, -2.0, 0.5], atol=1e-3)

    def test_r2_on_training_data_near_one(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (50, 2))
        y = X[:, 0] * 3 + 1
        model = LinearRegression().fit(X, y)
        assert r2_score(y, model.predict(X)) > 0.999

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            LinearRegression().predict(np.zeros((1, 1)))

    def test_collinear_features_stable(self):
        X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
        y = np.array([1.0, 2.0, 3.0])
        predictions = LinearRegression().fit(X, y).predict(X)
        assert np.allclose(predictions, y, atol=1e-2)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy_score([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)

    def test_accuracy_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy_score([], [])

    def test_accuracy_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy_score([1], [1, 2])

    def test_r2_perfect_and_mean(self):
        y = [1.0, 2.0, 3.0]
        assert r2_score(y, y) == 1.0
        assert r2_score(y, [2.0, 2.0, 2.0]) == 0.0

    def test_r2_constant_target_is_zero(self):
        assert r2_score([5.0, 5.0], [1.0, 9.0]) == 0.0


class TestTrainTestSplit:
    def test_sizes(self):
        X = np.arange(20).reshape(-1, 1)
        y = np.arange(20)
        X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.25)
        assert len(X_test) == 5
        assert len(X_train) == 15

    def test_deterministic_given_seed(self):
        X = np.arange(10).reshape(-1, 1)
        y = np.arange(10)
        a = train_test_split(X, y, random_state=7)[1]
        b = train_test_split(X, y, random_state=7)[1]
        assert np.array_equal(a, b)

    def test_partition_is_complete(self):
        X = np.arange(10).reshape(-1, 1)
        y = np.arange(10)
        X_train, X_test, _, _ = train_test_split(X, y, test_size=0.3)
        combined = sorted(X_train.ravel().tolist() + X_test.ravel().tolist())
        assert combined == list(range(10))

    def test_rows_stay_aligned(self):
        X = np.arange(10).reshape(-1, 1)
        y = np.arange(10) * 10
        X_train, X_test, y_train, y_test = train_test_split(X, y)
        assert np.array_equal(X_train.ravel() * 10, y_train)
        assert np.array_equal(X_test.ravel() * 10, y_test)

    def test_invalid_test_size(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((5, 1)), np.zeros(5), test_size=1.5)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((1, 1)), np.zeros(1))

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            train_test_split(np.zeros((5, 1)), np.zeros(4))
