"""A Learn2Clean-style reinforcement-learning pipeline optimizer.

Learn2Clean [Berti-Equille, WWW'19] — the multi-step system the paper's
related work contrasts against — uses Q-learning to pick the sequence of
preparation operators that maximizes a downstream model's performance.
It optimizes a *different objective* than LucidScript: accuracy rather
than standardness, with no corpus and no user script to preserve.

This offline reimplementation is faithful to that design:

* **state** — a discretized data-quality profile of the working table
  (missing values? duplicates? outliers? unencoded categoricals?);
* **actions** — a catalogue of preparation operators instantiated
  against the table's schema (imputation variants, dedup, 3σ outlier
  filtering, dummy encoding, plus *stop*);
* **reward** — the change in downstream holdout accuracy after applying
  the operator (evaluated with :func:`repro.ml.evaluate_downstream`);
* **policy** — tabular ε-greedy Q-learning over episodes on the actual
  dataset.

The learned pipeline can then be rendered as a pandas script, which is
how the :class:`Learn2Clean` baseline plugs into the standardization
harness — where, as the paper argues, accuracy-seeking pipelines are not
necessarily *standard* ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..minipandas import DataFrame, is_missing
from ..ml import DownstreamEvaluationError, evaluate_downstream
from .base import Baseline

__all__ = ["QualityState", "Action", "Learn2CleanAgent", "Learn2Clean"]

STOP = "stop"

#: Seed of the agent's ε-greedy exploration.
RANDOM_STATE = 0


@dataclass(frozen=True)
class QualityState:
    """Discretized quality profile of a working table (the RL state)."""

    has_missing: bool
    has_duplicates: bool
    has_outliers: bool
    has_categoricals: bool

    @classmethod
    def of(cls, frame: DataFrame, target: str) -> "QualityState":
        feature_cols = [c for c in frame.columns if c != target]
        has_missing = any(
            frame[c].isnull().any() for c in feature_cols
        )
        has_duplicates = bool(frame.duplicated().any()) if len(frame) else False
        has_outliers = False
        for c in feature_cols:
            series = frame[c]
            if series.dtype not in ("int64", "float64"):
                continue
            mean, std = series.mean(), series.std()
            if is_missing(std) or std == 0:
                continue
            if ((series - mean).abs() > 3 * std).any():
                has_outliers = True
                break
        has_categoricals = any(
            frame[c].dtype == "object" and frame[c].nunique() <= 20
            for c in feature_cols
        )
        return cls(has_missing, has_duplicates, has_outliers, has_categoricals)


@dataclass(frozen=True)
class Action:
    """One preparation operator: a table transform plus its script line."""

    name: str
    source: str
    transform: Callable[[DataFrame], DataFrame] = field(compare=False, hash=False)


def _catalogue(frame: DataFrame, target: str) -> List[Action]:
    """Instantiate the operator catalogue against a concrete schema."""
    from ..minipandas.ops import get_dummies

    numeric = [
        c for c in frame.columns
        if c != target and frame[c].dtype in ("int64", "float64")
    ]
    categorical = [
        c for c in frame.columns
        if c != target and frame[c].dtype == "object" and frame[c].nunique() <= 20
    ]
    actions = [
        Action("impute_mean", "df = df.fillna(df.mean())",
               lambda f: f.fillna(f.mean())),
        Action("impute_median", "df = df.fillna(df.median())",
               lambda f: f.fillna(f.median())),
        Action("drop_missing", "df = df.dropna()", lambda f: f.dropna()),
        Action("dedup", "df = df.drop_duplicates()", lambda f: f.drop_duplicates()),
    ]
    for col in numeric[:4]:
        def clip_outliers(f, col=col):
            series = f[col]
            mean, std = series.mean(), series.std()
            if is_missing(std) or std == 0:
                return f
            return f[(series - mean).abs() <= 3 * std]

        actions.append(
            Action(
                f"outliers_{col}",
                f"df = df[(df['{col}'] - df['{col}'].mean()).abs() "
                f"<= 3 * df['{col}'].std()]",
                clip_outliers,
            )
        )
    if categorical:
        actions.append(
            Action(
                "encode",
                f"df = pd.get_dummies(df, columns={sorted(categorical)!r})",
                lambda f: get_dummies(f, columns=categorical),
            )
        )
    return actions


class Learn2CleanAgent:
    """Tabular ε-greedy Q-learning over preparation pipelines."""

    def __init__(
        self,
        target: str,
        task: Optional[str] = None,
        max_steps: int = 4,
        n_episodes: int = 25,
        epsilon: float = 0.3,
        learning_rate: float = 0.5,
        discount: float = 0.9,
    ):
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if n_episodes < 1:
            raise ValueError("n_episodes must be >= 1")
        self.target = target
        self.task = task
        self.max_steps = max_steps
        self.n_episodes = n_episodes
        self.epsilon = epsilon
        self.learning_rate = learning_rate
        self.discount = discount
        self._rng = np.random.default_rng(RANDOM_STATE)
        self.q_table: Dict[Tuple[QualityState, str], float] = {}
        self._actions: List[Action] = []

    # ------------------------------------------------------------- internals
    def _accuracy(self, frame: DataFrame) -> float:
        try:
            return evaluate_downstream(frame, self.target, task=self.task).accuracy
        except DownstreamEvaluationError:
            return 0.0

    def _action_names(self) -> List[str]:
        return [a.name for a in self._actions] + [STOP]

    def _q(self, state: QualityState, action: str) -> float:
        return self.q_table.get((state, action), 0.0)

    def _choose(self, state: QualityState, greedy: bool) -> str:
        names = self._action_names()
        if not greedy and self._rng.random() < self.epsilon:
            return names[int(self._rng.integers(0, len(names)))]
        return max(names, key=lambda a: self._q(state, a))

    def _apply(self, frame: DataFrame, action_name: str) -> DataFrame:
        for action in self._actions:
            if action.name == action_name:
                out = action.transform(frame)
                return out if len(out) >= 10 else frame  # refuse to empty the table
        return frame

    # ----------------------------------------------------------------- train
    def fit(self, frame: DataFrame) -> "Learn2CleanAgent":
        """Q-learn a cleaning policy on *frame*."""
        if self.target not in frame.columns:
            raise ValueError(f"target column {self.target!r} missing")
        self._actions = _catalogue(frame, self.target)
        for _ in range(self.n_episodes):
            working = frame
            accuracy = self._accuracy(working)
            for _step in range(self.max_steps):
                state = QualityState.of(working, self.target)
                action_name = self._choose(state, greedy=False)
                if action_name == STOP:
                    self._update(state, action_name, 0.0, None)
                    break
                candidate = self._apply(working, action_name)
                new_accuracy = self._accuracy(candidate)
                reward = new_accuracy - accuracy
                next_state = QualityState.of(candidate, self.target)
                self._update(state, action_name, reward, next_state)
                working, accuracy = candidate, new_accuracy
        return self

    def _update(
        self,
        state: QualityState,
        action: str,
        reward: float,
        next_state: Optional[QualityState],
    ) -> None:
        future = 0.0
        if next_state is not None:
            future = max(self._q(next_state, a) for a in self._action_names())
        old = self._q(state, action)
        self.q_table[(state, action)] = old + self.learning_rate * (
            reward + self.discount * future - old
        )

    # ---------------------------------------------------------------- policy
    def recommend(self, frame: DataFrame) -> List[Action]:
        """Greedy rollout of the learned policy: the recommended pipeline."""
        if not self._actions:
            raise RuntimeError("agent is not fitted; call fit() first")
        pipeline: List[Action] = []
        working = frame
        for _ in range(self.max_steps):
            state = QualityState.of(working, self.target)
            action_name = self._choose(state, greedy=True)
            if action_name == STOP:
                break
            action = next(a for a in self._actions if a.name == action_name)
            if action in pipeline:
                break  # policy loop: the operator no longer changes state
            candidate = self._apply(working, action_name)
            pipeline.append(action)
            working = candidate
        return pipeline


class Learn2Clean(Baseline):
    """Learn2Clean as a script-rewriting baseline.

    Learns an accuracy-maximizing pipeline on D_IN and renders it as a
    pandas script (header + learned operators + conventional tail).  The
    corpus is ignored — the published system has no notion of one — which
    is exactly why accuracy-optimal pipelines need not be standard.
    """

    name = "Learn2Clean"

    def __init__(
        self,
        data_dir: str,
        target: str,
        task: Optional[str] = None,
        n_episodes: int = 15,
    ):
        self.data_dir = data_dir
        self.target = target
        self.task = task
        self.n_episodes = n_episodes
        self._pipeline_cache: Optional[List[Action]] = None

    def _pipeline(self, script: str) -> List[Action]:
        if self._pipeline_cache is None:
            from ..sandbox import run_script

            lines = [
                line
                for line in script.splitlines()
                if line.strip().startswith(("import ", "from ")) or "read_csv" in line
            ]
            result = run_script(
                "\n".join(lines), data_dir=self.data_dir, sample_rows=400
            )
            if not result.ok or result.output is None:
                self._pipeline_cache = []
            else:
                agent = Learn2CleanAgent(
                    target=self.target, task=self.task, n_episodes=self.n_episodes
                )
                agent.fit(result.output)
                self._pipeline_cache = agent.recommend(result.output)
        return self._pipeline_cache

    def rewrite(self, script: str, corpus: Sequence[str]) -> str:
        pipeline = self._pipeline(script)
        if not pipeline:
            return script
        header = [
            line
            for line in script.splitlines()
            if line.strip().startswith(("import ", "from ")) or "read_csv" in line
        ]
        body = [action.source for action in pipeline]
        tail = [
            f"y = df['{self.target}']",
            f"X = df.drop('{self.target}', axis=1)",
        ]
        return "\n".join(header + body + tail)
