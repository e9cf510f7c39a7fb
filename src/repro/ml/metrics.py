"""Evaluation metrics for the downstream-model substrate."""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["accuracy_score", "r2_score"]


def accuracy_score(y_true: Sequence, y_pred: Sequence) -> float:
    """Fraction of exact label matches."""
    y_true, y_pred = np.asarray(list(y_true)), np.asarray(list(y_pred))
    if y_true.shape != y_pred.shape:
        raise ValueError(
            f"shape mismatch: y_true {y_true.shape} vs y_pred {y_pred.shape}"
        )
    if y_true.size == 0:
        raise ValueError("accuracy is undefined on empty inputs")
    return float(np.mean(y_true == y_pred))


def r2_score(y_true: Sequence, y_pred: Sequence) -> float:
    """Coefficient of determination; 0 when the target has zero variance."""
    y_true = np.asarray(list(y_true), dtype=float)
    y_pred = np.asarray(list(y_pred), dtype=float)
    total = float(np.sum((y_true - y_true.mean()) ** 2))
    if total == 0:
        return 0.0
    residual = float(np.sum((y_true - y_pred) ** 2))
    return 1.0 - residual / total
