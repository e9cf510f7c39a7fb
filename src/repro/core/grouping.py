"""Semantic operation grouping (the paper's Section 6.5 future work).

"Future work will focus on reducing the search space, possibly by
grouping semantically similar operations."  This module clusters the
corpus's 1-gram atoms by a token-level embedding of their signatures —
``fillna(df,@)`` variants land together, subscript filters land together
— and exposes one *representative* (the most frequent member) per group.
When enabled, transformation enumeration only proposes group
representatives for 1-gram adds, shrinking the candidate set while
keeping one exemplar of every operation family reachable.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..lang.vocabulary import CorpusVocabulary
from .diversity import kmeans

__all__ = ["OperationGroups", "group_operations"]

_TOKEN_RE = re.compile(r"[A-Za-z_]+|[<>=!+\-*/%&|^~]+")


def _signature_features(signatures: Sequence[str], dim: int = 48) -> np.ndarray:
    X = np.zeros((len(signatures), dim))
    for row, signature in enumerate(signatures):
        # weight the operation name (prefix before '(') double: grouping is
        # about *what operation* an atom performs, not its operands
        name = signature.split("(", 1)[0]
        tokens = _TOKEN_RE.findall(signature) + [name, name]
        for token in tokens:
            X[row, zlib.crc32(token.encode()) % dim] += 1.0
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return X / norms


@dataclass
class OperationGroups:
    """A clustering of 1-gram atom signatures into operation families."""

    group_of: Dict[str, int]
    representatives: Dict[int, str]

    @property
    def n_groups(self) -> int:
        return len(self.representatives)

    def representative_for(self, signature: str) -> Optional[str]:
        group = self.group_of.get(signature)
        if group is None:
            return None
        return self.representatives[group]

    def is_representative(self, signature: str) -> bool:
        group = self.group_of.get(signature)
        return group is not None and self.representatives[group] == signature

    def members(self, group: int) -> List[str]:
        return [sig for sig, g in self.group_of.items() if g == group]


def group_operations(
    vocabulary: CorpusVocabulary,
    n_groups: int,
    random_state: int = 0,
) -> OperationGroups:
    """Cluster the vocabulary's 1-gram atoms into *n_groups* families.

    The representative of each group is its most frequent member, so the
    reduced search space proposes the most standard exemplar of every
    operation family.
    """
    if n_groups < 1:
        raise ValueError(f"n_groups must be >= 1, got {n_groups}")
    signatures = [sig for sig, _ in vocabulary.onegram_counts.most_common()]
    if not signatures:
        return OperationGroups(group_of={}, representatives={})
    labels = kmeans(
        _signature_features(signatures), min(n_groups, len(signatures)),
        random_state=random_state,
    )
    group_of = {sig: int(label) for sig, label in zip(signatures, labels)}
    representatives: Dict[int, str] = {}
    for sig in signatures:  # most_common order: first seen = most frequent
        group = group_of[sig]
        representatives.setdefault(group, sig)
    return OperationGroups(group_of=group_of, representatives=representatives)
