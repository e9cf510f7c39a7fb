"""repro.ml — a from-scratch model substrate for the Δ_M intent measure.

Stands in for scikit-learn (unavailable offline): deterministic linear
models plus the :func:`evaluate_downstream` oracle that scores a
script's emitted dataset by training a downstream predictor on it.
"""

from .linear import LinearRegression, LogisticRegression
from .metrics import accuracy_score, r2_score
from .model_selection import train_test_split
from .pipeline import (
    DownstreamEvaluationError,
    DownstreamResult,
    evaluate_downstream,
    prepare_features,
)

__all__ = [
    "DownstreamEvaluationError",
    "DownstreamResult",
    "LinearRegression",
    "LogisticRegression",
    "accuracy_score",
    "evaluate_downstream",
    "prepare_features",
    "r2_score",
    "train_test_split",
]
