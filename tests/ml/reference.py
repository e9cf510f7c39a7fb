"""Reference implementations of the downstream-model pipeline.

The production code in :mod:`repro.ml` converts feature columns in one
numpy call and steps gradient descent in preallocated buffers.  These
are the straightforward forms it replaced: a per-value float conversion,
``Series.nunique`` for the dummy-encoding cardinality, and the textbook
gradient step that allocates its temporaries.  Tests require the
production results to be bit-identical to these.
"""

from __future__ import annotations

import numpy as np

from repro.minipandas import is_missing
from repro.minipandas.ops import get_dummies
from repro.ml import (
    LinearRegression,
    LogisticRegression,
    accuracy_score,
    r2_score,
    train_test_split,
)
from repro.ml.linear import _as_matrix, _standardize
from repro.ml.pipeline import (
    _MAX_DUMMY_CARDINALITY,
    _MAX_TRAIN_ROWS,
    DownstreamEvaluationError,
    _infer_task,
)


class TextbookLogisticRegression(LogisticRegression):
    """``LogisticRegression`` whose ``fit`` is the textbook loop."""

    def fit(self, X, y) -> "TextbookLogisticRegression":
        X = _as_matrix(X)
        y = np.asarray(list(y))
        self.classes_ = np.unique(y)
        if len(self.classes_) == 1:
            return super().fit(X, y)
        if len(self.classes_) != 2:
            raise ValueError(f"binary only; got {len(self.classes_)} classes")
        target = (y == self.classes_[1]).astype(float)
        self._mean = X.mean(axis=0)
        self._scale = X.std(axis=0)
        self._scale[self._scale == 0] = 1.0
        Z = _standardize(X, self._mean, self._scale)
        n, d = Z.shape
        w = np.zeros(d)
        b = 0.0
        for _ in range(self.n_iter):
            logits = Z @ w + b
            probs = 1.0 / (1.0 + np.exp(-np.clip(logits, -35, 35)))
            error = probs - target
            grad_w = Z.T @ error / n + self.l2 * w
            grad_b = float(error.mean())
            w -= self.learning_rate * grad_w
            b -= self.learning_rate * grad_b
        self.coef_ = w
        self.intercept_ = b
        return self


def per_value_float64(cells) -> np.ndarray:
    return np.array(
        [np.nan if is_missing(v) else float(v) for v in cells], dtype=float
    )


def reference_prepare_features(frame, target):
    if target not in frame.columns:
        raise DownstreamEvaluationError(f"target column {target!r} is missing")
    y = [v for v in frame[target]]
    keep_rows = [pos for pos, v in enumerate(y) if not is_missing(v)]
    if len(keep_rows) < 10:
        raise DownstreamEvaluationError("too few rows")
    frame = frame.take(keep_rows)
    y = [y[pos] for pos in keep_rows]
    features = frame.drop(target, axis=1)
    numeric_cols, dummy_cols = [], []
    for col in features.columns:
        if features[col].dtype in ("int64", "float64", "bool"):
            numeric_cols.append(col)
        elif features[col].nunique() <= _MAX_DUMMY_CARDINALITY:
            dummy_cols.append(col)
    encoded = features[numeric_cols + dummy_cols]
    if dummy_cols:
        encoded = get_dummies(encoded, columns=dummy_cols)
    if not encoded.columns:
        raise DownstreamEvaluationError("no usable feature columns remain")
    columns = []
    for col in encoded.columns:
        values = per_value_float64(encoded[col].tolist())
        if np.isnan(values).all():
            continue
        mean = float(np.nanmean(values))
        columns.append(np.where(np.isnan(values), mean, values))
    if not columns:
        raise DownstreamEvaluationError("all feature columns are empty")
    return np.column_stack(columns), y


def reference_evaluate_downstream(frame, target, task=None, random_state=0) -> float:
    """The accuracy ``evaluate_downstream`` returns, from the pieces above."""
    X, y = reference_prepare_features(frame, target)
    task = task or _infer_task(y)
    if X.shape[0] > _MAX_TRAIN_ROWS:
        rng = np.random.default_rng(random_state)
        pick = np.sort(rng.choice(X.shape[0], size=_MAX_TRAIN_ROWS, replace=False))
        X = X[pick]
        y = [y[i] for i in pick]
    if task == "classification":
        X_train, X_test, y_train, y_test = train_test_split(
            X, np.array(y), test_size=0.25, random_state=random_state
        )
        if len(np.unique(y_train)) < 2:
            return accuracy_score(y_test, np.full(len(y_test), y_train[0]))
        clf = TextbookLogisticRegression()
        clf.fit(X_train, y_train)
        return accuracy_score(y_test, clf.predict(X_test))
    values = np.array([float(v) for v in y])
    X_train, X_test, y_train, y_test = train_test_split(
        X, values, test_size=0.25, random_state=random_state
    )
    reg = LinearRegression().fit(X_train, y_train)
    return float(np.clip(r2_score(y_test, reg.predict(X_test)), 0.0, 1.0))
