"""Atoms and edges — the units of the paper's DAG script representation.

Definition 3.1: an *atom* is one invocation AST node together with its
parents that are not invocation nodes (data nodes: names and constants).
Atoms are used at two granularities (Section 3):

* **1-gram atoms** — individual operation invocations such as
  ``fillna(df, median(df))`` or ``subscript(df, 'Age')``;
* **n-gram atoms** — whole statements (lines), e.g. the normalized text
  ``df = df.fillna(df.median())``.

Edges (``E'``) encode data flow: intra-statement edges link nested 1-gram
atoms to their consumers, and inter-statement edges link consecutive
statements that read/write the same canonical dataframe variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["Atom", "Edge", "NGRAM", "ONEGRAM"]

ONEGRAM = "1-gram"
NGRAM = "n-gram"


@dataclass(frozen=True)
class Atom:
    """A hashable atomic unit of the DAG representation.

    Attributes
    ----------
    gram:
        ``"1-gram"`` (operation invocation) or ``"n-gram"`` (statement).
    signature:
        Canonical identity string.  For 1-grams this encodes the invocation
        name and its data-node arguments (nested invocations appear as the
        placeholder ``@``); for n-grams it is the lemmatized statement text.
    """

    gram: str
    signature: str

    def __post_init__(self):
        if self.gram not in (ONEGRAM, NGRAM):
            raise ValueError(f"invalid gram kind: {self.gram!r}")
        if not self.signature:
            raise ValueError("atom signature must be non-empty")

    def __str__(self) -> str:
        return self.signature


@dataclass(frozen=True)
class Edge:
    """A directed data-flow edge between two atoms (by signature)."""

    source: str
    target: str

    def as_tuple(self) -> Tuple[str, str]:
        return (self.source, self.target)

    def __str__(self) -> str:
        return f"{self.source} -> {self.target}"
