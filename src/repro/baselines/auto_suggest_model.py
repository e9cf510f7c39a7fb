"""A learned next-operator model for the Auto-Suggest baseline.

The published Auto-Suggest system *learns* to recommend the next operator
from features of the input table, trained on harvested notebooks.  This
module reproduces that design offline: a synthetic generator emits tables
labelled with the structural operator a notebook author would apply
(melt for year-in-header matrices, transpose for attribute-per-row
tables, pivot for key/value logs, none for relational tables), and a
one-vs-rest logistic model is trained over the same
:class:`~repro.baselines.table_features.TableFeatures` the rule model
uses.

The trained model backs :class:`LearnedAutoSuggest`; on relational
competition data it predicts "none", reproducing the paper's 0%
improvement with a genuine learned component rather than a hard rule.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._floats import left_sum
from ..minipandas import DataFrame
from ..ml.linear import LogisticRegression
from .table_features import TableFeatures, featurize_table

__all__ = [
    "OPERATOR_CLASSES",
    "generate_training_tables",
    "NextOperatorModel",
]

OPERATOR_CLASSES = ("none", "melt", "transpose", "pivot")


def _feature_vector(features: TableFeatures) -> List[float]:
    return [
        np.log1p(features.n_rows),
        np.log1p(features.n_cols),
        features.numeric_fraction,
        features.yearlike_column_fraction,
        features.numeric_name_fraction,
        float(features.wide),
        float(features.has_duplicate_keys),
        features.n_rows / max(features.n_cols, 1),
    ]


def _relational_table(rng: np.random.Generator) -> DataFrame:
    n = int(rng.integers(30, 200))
    return DataFrame(
        {
            "name": [f"e{i}" for i in range(n)],
            "category": rng.choice(["a", "b", "c"], size=n).tolist(),
            "value": rng.normal(0, 1, n).tolist(),
            "count": rng.integers(0, 50, n).tolist(),
        }
    )


def _year_matrix_table(rng: np.random.Generator) -> DataFrame:
    n = int(rng.integers(3, 15))
    n_years = int(rng.integers(12, 40))
    start = int(rng.integers(1950, 1990))
    data = {"entity": [f"e{i}" for i in range(n)]}
    for year in range(start, start + n_years):
        data[str(year)] = rng.normal(100, 10, n).tolist()
    return DataFrame(data)


def _attribute_per_row_table(rng: np.random.Generator) -> DataFrame:
    n_attrs = int(rng.integers(4, 10))
    n_entities = int(rng.integers(40, 120))
    data = {"attribute": [f"attr{i}" for i in range(n_attrs)]}
    for entity in range(n_entities):
        data[f"e{entity}"] = rng.normal(0, 1, n_attrs).tolist()
    return DataFrame(data)


def _key_value_log_table(rng: np.random.Generator) -> DataFrame:
    n = int(rng.integers(40, 200))
    shops = [f"shop{int(i)}" for i in rng.integers(0, 5, n)]
    items = [f"item{int(i)}" for i in rng.integers(0, 6, n)]
    return DataFrame(
        {"shop": shops, "item": items, "v": rng.normal(10, 2, n).tolist()}
    )


_GENERATORS = {
    "none": _relational_table,
    "melt": _year_matrix_table,
    "transpose": _attribute_per_row_table,
    "pivot": _key_value_log_table,
}


def generate_training_tables(
    n_per_class: int = 40, seed: int = 0
) -> List[Tuple[DataFrame, str]]:
    """Labelled (table, next-operator) training examples."""
    rng = np.random.default_rng(seed)
    examples: List[Tuple[DataFrame, str]] = []
    for label in OPERATOR_CLASSES:
        for _ in range(n_per_class):
            examples.append((_GENERATORS[label](rng), label))
    return examples


class NextOperatorModel:
    """One-vs-rest logistic model over table features."""

    def __init__(self):
        self._models: Dict[str, LogisticRegression] = {}
        self.classes_: Tuple[str, ...] = OPERATOR_CLASSES

    def fit(self, examples: Sequence[Tuple[DataFrame, str]]) -> "NextOperatorModel":
        if not examples:
            raise ValueError("cannot train on an empty example set")
        X = np.array(
            [_feature_vector(featurize_table(table)) for table, _ in examples]
        )
        labels = [label for _, label in examples]
        for cls in self.classes_:
            y = np.array([1 if label == cls else 0 for label in labels])
            model = LogisticRegression(n_iter=400)
            model.fit(X, y)
            self._models[cls] = model
        return self

    def predict_proba(self, table: DataFrame) -> Dict[str, float]:
        if not self._models:
            raise RuntimeError("model is not fitted; call fit() first")
        x = np.array([_feature_vector(featurize_table(table))])
        raw = {}
        for cls, model in self._models.items():
            if len(model.classes_) < 2:
                raw[cls] = float(model.classes_[0])
            else:
                raw[cls] = float(model.predict_proba(x)[0, 1])
        total = left_sum(raw.values()) or 1.0
        return {cls: p / total for cls, p in raw.items()}

    def predict(self, table: DataFrame) -> Optional[str]:
        """Most likely next operator, or None for 'none'."""
        proba = self.predict_proba(table)
        best = max(proba, key=proba.get)
        return None if best == "none" else best


_DEFAULT_MODEL: Optional[NextOperatorModel] = None


def default_model() -> NextOperatorModel:
    """The lazily trained shared model (deterministic training set)."""
    global _DEFAULT_MODEL
    if _DEFAULT_MODEL is None:
        _DEFAULT_MODEL = NextOperatorModel().fit(generate_training_tables())
    return _DEFAULT_MODEL
