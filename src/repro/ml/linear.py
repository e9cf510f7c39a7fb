"""Linear models trained with deterministic full-batch gradient descent.

These stand in for scikit-learn (unavailable offline) inside the
downstream-model user-intent measure Δ_M.  Determinism matters: LucidScript
compares accuracies between the user's script output and each candidate
script output, so run-to-run noise would corrupt the constraint check.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["LogisticRegression", "LinearRegression"]


def _as_matrix(X) -> np.ndarray:
    arr = np.asarray(X, dtype=float)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"X must be 2-dimensional, got shape {arr.shape}")
    return arr


def _standardize(X: np.ndarray, mean: np.ndarray, scale: np.ndarray) -> np.ndarray:
    return (X - mean) / scale


class LogisticRegression:
    """Binary logistic regression with L2 regularization.

    Features are standardized internally so the fixed learning rate behaves
    across datasets with very different scales (ages vs. sale prices).
    """

    def __init__(
        self,
        learning_rate: float = 0.5,
        n_iter: int = 300,
        l2: float = 1e-3,
    ):
        self.learning_rate = learning_rate
        self.n_iter = n_iter
        self.l2 = l2
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0
        self.classes_: Optional[np.ndarray] = None
        self._mean: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None

    def fit(self, X, y) -> "LogisticRegression":
        X = _as_matrix(X)
        y = np.asarray(list(y))
        if len(y) != X.shape[0]:
            raise ValueError("X and y have different numbers of rows")
        self.classes_ = np.unique(y)
        if len(self.classes_) == 1:
            # degenerate but legal: always predict the single class
            self.coef_ = np.zeros(X.shape[1])
            self.intercept_ = np.inf if self.classes_[0] == self.classes_[-1] else 0.0
            self._mean = np.zeros(X.shape[1])
            self._scale = np.ones(X.shape[1])
            return self
        if len(self.classes_) != 2:
            raise ValueError(
                f"LogisticRegression is binary; got {len(self.classes_)} classes"
            )
        target = (y == self.classes_[1]).astype(float)

        self._mean = X.mean(axis=0)
        self._scale = X.std(axis=0)
        self._scale[self._scale == 0] = 1.0
        Z = _standardize(X, self._mean, self._scale)

        n, d = Z.shape
        w = np.zeros(d)
        b = 0.0
        lr = self.learning_rate
        # The textbook step (kept in tests/ml as the oracle) is
        #   error = 1 / (1 + exp(-clip(Z @ w + b, -35, 35))) - target
        #   w -= lr * (Z.T @ error / n + l2 * w);  b -= lr * mean(error)
        # Each step below runs the same ufuncs in the same order, written
        # into three buffers instead of a dozen temporaries, so every
        # coefficient is bit-identical.  ``Z.T`` stays a transposed view:
        # a contiguous copy would make BLAS sum in another order.
        error = np.empty(n)
        grad = np.empty(d)
        penalty = np.empty(d)
        for _ in range(self.n_iter):
            np.matmul(Z, w, out=error)
            error += b
            np.maximum(error, -35, out=error)
            np.minimum(error, 35, out=error)
            np.negative(error, out=error)
            np.exp(error, out=error)
            error += 1.0
            np.divide(1.0, error, out=error)
            error -= target
            np.matmul(Z.T, error, out=grad)
            grad /= n
            np.multiply(self.l2, w, out=penalty)
            grad += penalty
            grad_b = float(np.add.reduce(error) / n)
            grad *= lr
            w -= grad
            b -= lr * grad_b
        self.coef_ = w
        self.intercept_ = b
        return self

    def predict_proba(self, X) -> np.ndarray:
        self._check_fitted()
        Z = _standardize(_as_matrix(X), self._mean, self._scale)
        logits = Z @ self.coef_ + self.intercept_
        p1 = 1.0 / (1.0 + np.exp(-np.clip(logits, -35, 35)))
        return np.column_stack([1 - p1, p1])

    def predict(self, X) -> np.ndarray:
        self._check_fitted()
        if len(self.classes_) == 1:
            return np.full(_as_matrix(X).shape[0], self.classes_[0])
        proba = self.predict_proba(X)[:, 1]
        return np.where(proba >= 0.5, self.classes_[1], self.classes_[0])

    def _check_fitted(self) -> None:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted; call fit() first")


class LinearRegression:
    """Ordinary least squares via the normal equations (ridge-stabilized)."""

    def __init__(self, l2: float = 1e-6):
        self.l2 = l2
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: float = 0.0

    def fit(self, X, y) -> "LinearRegression":
        X = _as_matrix(X)
        y = np.asarray(list(y), dtype=float)
        if len(y) != X.shape[0]:
            raise ValueError("X and y have different numbers of rows")
        n, d = X.shape
        Xb = np.column_stack([np.ones(n), X])
        gram = Xb.T @ Xb + self.l2 * np.eye(d + 1)
        theta = np.linalg.solve(gram, Xb.T @ y)
        self.intercept_ = float(theta[0])
        self.coef_ = theta[1:]
        return self

    def predict(self, X) -> np.ndarray:
        if self.coef_ is None:
            raise RuntimeError("model is not fitted; call fit() first")
        return _as_matrix(X) @ self.coef_ + self.intercept_
