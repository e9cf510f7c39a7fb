"""Competition specifications for the six evaluation datasets (Table 3).

The paper evaluates on six Kaggle competitions.  Offline, we synthesize
each one: a data generator that reproduces the schema and missing-data
structure, and a script-step pool whose frequency distribution mirrors the
long-tailed structure of real notebook corpora (a common core of majority
steps, competing minority variants, and a tail of idiosyncratic steps).

Row and corpus sizes follow Table 3, with the Sales table scaled from 744k
to 40k rows for runtime (documented in EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

__all__ = ["StepSlot", "CompetitionSpec", "GROUPS"]

#: Canonical ordering of data-preparation phases inside a script.
GROUPS = {
    "impute": 0,
    "clean": 1,
    "filter": 2,
    "feature": 3,
    "encode": 4,
    "split": 5,
}


@dataclass(frozen=True)
class StepSlot:
    """One decision point in script generation.

    A slot holds mutually exclusive alternatives — e.g. "how do you impute
    Age?" with variants (mean 0.5, median 0.2, drop 0.1, nothing 0.2).
    Generation rolls one alternative (or none) per slot; the probabilities
    shape the corpus step distribution Q(x).
    """

    group: str
    alternatives: Tuple[Tuple[str, float], ...]

    def __post_init__(self):
        if self.group not in GROUPS:
            raise ValueError(f"unknown step group: {self.group!r}")
        total = sum(p for _, p in self.alternatives)
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"slot probabilities must sum to <= 1, got {total:.3f}"
            )
        for source, p in self.alternatives:
            if not source or p < 0:
                raise ValueError(f"invalid alternative: ({source!r}, {p})")


@dataclass(frozen=True)
class CompetitionSpec:
    """Everything needed to synthesize one competition's data and corpus."""

    name: str
    target: str
    task: str  # 'classification' | 'regression'
    n_rows: int
    n_scripts: int
    data_file: str
    generator: Callable  # (numpy Generator, n_rows) -> minipandas DataFrame
    slots: Tuple[StepSlot, ...]
    rare_steps: Tuple[str, ...]
    #: probability a generated script ends with the y/X split convention
    split_probability: float = 0.6

    def __post_init__(self):
        if self.task not in ("classification", "regression"):
            raise ValueError(f"invalid task: {self.task!r}")
        if self.n_rows < 10:
            raise ValueError("n_rows must be >= 10")
        if self.n_scripts < 2:
            raise ValueError("n_scripts must be >= 2")
