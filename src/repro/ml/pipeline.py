"""End-to-end downstream-model evaluation over a minipandas DataFrame.

This is the quality oracle behind the paper's Δ_M user-intent measure:
given the dataset a script emitted and the prediction target, return a
single accuracy-like score in [0, 1].  Classification targets use holdout
accuracy; regression targets use clipped R² so both task types share a
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..minipandas import DataFrame, Series, is_missing
from ..minipandas._missing import float64_array
from ..minipandas.kernels import NA_KEY, na_key
from ..minipandas.ops import get_dummies
from .linear import LinearRegression, LogisticRegression
from .metrics import accuracy_score, r2_score
from .model_selection import train_test_split

__all__ = [
    "DownstreamEvaluationError",
    "DownstreamResult",
    "evaluate_downstream",
    "prepare_features",
]

#: Object columns with more than this many categories are dropped rather
#: than dummy-encoded (IDs, free text) — matching common notebook practice.
_MAX_DUMMY_CARDINALITY = 20

#: Rows beyond this cap are deterministically subsampled before training.
_MAX_TRAIN_ROWS = 2000


class DownstreamEvaluationError(ValueError):
    """The emitted dataset cannot support the downstream task."""


def _category_count(column: Series) -> int:
    """Distinct non-missing values, keyed as ``get_dummies`` groups them.

    Equal to ``Series.nunique()`` wherever that does not raise; a column
    holding an unhashable cell (a list from ``str.split``) is counted
    through :func:`~repro.minipandas.kernels.na_key`'s repr key instead.
    """
    try:
        distinct = set(column)
    except TypeError:
        distinct = {na_key(v) for v in column} - {NA_KEY}
    return sum(1 for v in distinct if not is_missing(v))


def prepare_features(frame: DataFrame, target: str) -> tuple[np.ndarray, list]:
    """Build a dense numeric feature matrix from everything except *target*.

    Object columns are dummy-encoded when low-cardinality and dropped
    otherwise; missing values are mean-imputed; constant columns survive
    (models tolerate them).  Returns (matrix, target_values).
    """
    if target not in frame.columns:
        raise DownstreamEvaluationError(
            f"target column {target!r} is missing from the script output"
        )
    y = frame[target].tolist()
    keep_rows = [pos for pos, gap in enumerate(frame[target].isnull()) if not gap]
    if len(keep_rows) < 10:
        raise DownstreamEvaluationError(
            f"only {len(keep_rows)} rows with a non-missing target remain"
        )
    frame = frame.take(keep_rows)
    y = [y[pos] for pos in keep_rows]

    features = frame.drop(target, axis=1)
    numeric_cols, dummy_cols, drop_cols = [], [], []
    for col in features.columns:
        dtype = features[col].dtype
        if dtype in ("int64", "float64", "bool"):
            numeric_cols.append(col)
        elif _category_count(features[col]) <= _MAX_DUMMY_CARDINALITY:
            dummy_cols.append(col)
        else:
            drop_cols.append(col)

    encoded = features[numeric_cols + dummy_cols]
    if dummy_cols:
        encoded = get_dummies(encoded, columns=dummy_cols)
    if not encoded.columns:
        raise DownstreamEvaluationError("no usable feature columns remain")

    columns = []
    for col in encoded.columns:
        payload = encoded[col]._payload
        values = (
            payload.astype(np.float64)
            if isinstance(payload, np.ndarray)
            else float64_array(payload)
        )
        if np.isnan(values).all():
            continue
        mean = float(np.nanmean(values))
        values = np.where(np.isnan(values), mean, values)
        columns.append(values)
    if not columns:
        raise DownstreamEvaluationError("all feature columns are empty")
    return np.column_stack(columns), y


def _target_float(value) -> float:
    """One target value as a float; a non-numeric one cannot be regressed."""
    try:
        return float(value)
    except (TypeError, ValueError):
        raise DownstreamEvaluationError(
            f"target value {value!r} is not numeric"
        ) from None


def _infer_task(y: list) -> str:
    distinct = {v for v in y}
    if len(distinct) <= 2:
        return "classification"
    if all(isinstance(v, str) for v in distinct):
        raise DownstreamEvaluationError(
            f"multiclass string target with {len(distinct)} classes is unsupported"
        )
    if len(distinct) <= 10 and all(_target_float(v).is_integer() for v in distinct):
        return "classification" if len(distinct) <= 2 else "regression"
    return "regression"


@dataclass
class DownstreamResult:
    """Outcome of one downstream evaluation."""

    accuracy: float
    task: str
    n_rows: int
    n_features: int


def evaluate_downstream(
    frame: DataFrame,
    target: str,
    task: Optional[str] = None,
    random_state: int = 0,
) -> DownstreamResult:
    """Train a model on *frame* and return its holdout score.

    Parameters
    ----------
    frame:
        Dataset emitted by a data-preparation script.
    target:
        Prediction target column name (the competition's label).
    task:
        'classification' or 'regression'; inferred from the target when None.
    random_state:
        Seed for the train/test split and row subsampling (keep it fixed when
        comparing two script outputs).
    """
    X, y = prepare_features(frame, target)
    resolved_task = task or _infer_task(y)

    if X.shape[0] > _MAX_TRAIN_ROWS:
        rng = np.random.default_rng(random_state)
        pick = np.sort(rng.choice(X.shape[0], size=_MAX_TRAIN_ROWS, replace=False))
        X = X[pick]
        y = [y[i] for i in pick]

    if resolved_task == "classification":
        labels = np.array(y)
        X_train, X_test, y_train, y_test = train_test_split(
            X, labels, test_size=0.25, random_state=random_state
        )
        n_classes = len(np.unique(y_train))
        if n_classes > 2:
            raise DownstreamEvaluationError(
                f"the logistic model is binary; the target has {n_classes} classes"
            )
        if n_classes < 2:
            # degenerate split: score the majority-class predictor
            majority = y_train[0]
            return DownstreamResult(
                accuracy=accuracy_score(y_test, np.full(len(y_test), majority)),
                task=resolved_task,
                n_rows=X.shape[0],
                n_features=X.shape[1],
            )
        clf = LogisticRegression()
        clf.fit(X_train, y_train)
        score = accuracy_score(y_test, clf.predict(X_test))
    elif resolved_task == "regression":
        values = np.array([_target_float(v) for v in y])
        X_train, X_test, y_train, y_test = train_test_split(
            X, values, test_size=0.25, random_state=random_state
        )
        reg = LinearRegression()
        reg.fit(X_train, y_train)
        score = float(np.clip(r2_score(y_test, reg.predict(X_test)), 0.0, 1.0))
    else:
        raise ValueError(f"unknown task: {resolved_task!r}")

    return DownstreamResult(
        accuracy=score, task=resolved_task, n_rows=X.shape[0], n_features=X.shape[1]
    )
