"""A CART-style decision tree classifier (Gini impurity, binary splits)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

__all__ = ["DecisionTreeClassifier"]


@dataclass
class _Node:
    prediction: Any
    feature: Optional[int] = None
    threshold: Optional[float] = None
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class DecisionTreeClassifier:
    """Deterministic binary-split decision tree over numeric features."""

    def __init__(self, max_depth: int = 5, min_samples_split: int = 10):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self._root: Optional[_Node] = None
        self.n_features_: Optional[int] = None

    def fit(self, X, y) -> "DecisionTreeClassifier":
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        y = np.asarray(list(y))
        if len(y) != X.shape[0]:
            raise ValueError("X and y have different numbers of rows")
        if len(y) == 0:
            raise ValueError("cannot fit on an empty dataset")
        self.n_features_ = X.shape[1]
        self._root = self._grow(X, y, depth=0)
        return self

    def predict(self, X) -> np.ndarray:
        if self._root is None:
            raise RuntimeError("model is not fitted; call fit() first")
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"expected {self.n_features_} features, got {X.shape[1]}"
            )
        return np.array([self._predict_one(row) for row in X])

    # ------------------------------------------------------------------ internals
    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        prediction = self._majority(y)
        if (
            depth >= self.max_depth
            or len(y) < self.min_samples_split
            or len(np.unique(y)) == 1
        ):
            return _Node(prediction=prediction)

        feature, threshold = self._best_split(X, y)
        if feature is None:
            return _Node(prediction=prediction)

        mask = X[:, feature] <= threshold
        if not mask.any() or mask.all():
            return _Node(prediction=prediction)
        return _Node(
            prediction=prediction,
            feature=feature,
            threshold=threshold,
            left=self._grow(X[mask], y[mask], depth + 1),
            right=self._grow(X[~mask], y[~mask], depth + 1),
        )

    def _best_split(self, X: np.ndarray, y: np.ndarray):
        best_gain, best_feature, best_threshold = 0.0, None, None
        parent_impurity = _gini(y)
        n = len(y)
        for feature in range(X.shape[1]):
            column = X[:, feature]
            candidates = np.unique(np.quantile(column, np.linspace(0.1, 0.9, 9)))
            for threshold in candidates:
                mask = column <= threshold
                n_left = int(mask.sum())
                if n_left == 0 or n_left == n:
                    continue
                gain = parent_impurity - (
                    n_left / n * _gini(y[mask]) + (n - n_left) / n * _gini(y[~mask])
                )
                if gain > best_gain + 1e-12:
                    best_gain, best_feature, best_threshold = gain, feature, float(threshold)
        return best_feature, best_threshold

    @staticmethod
    def _majority(y: np.ndarray):
        values, counts = np.unique(y, return_counts=True)
        return values[int(np.argmax(counts))]

    def _predict_one(self, row: np.ndarray):
        node = self._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.prediction


def _gini(y: np.ndarray) -> float:
    if len(y) == 0:
        return 0.0
    _, counts = np.unique(y, return_counts=True)
    p = counts / counts.sum()
    return float(1.0 - np.sum(p * p))
