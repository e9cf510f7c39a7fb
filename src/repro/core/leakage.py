"""Target-leakage detection via standardization (Section 6.6).

Target leakage — features derived from the prediction target — is an
out-of-the-ordinary data-preparation step.  Because leakage snippets never
appear in the corpus, their data-flow edges are heavily penalized by the
relative-entropy objective, and the search removes them.  A leakage
snippet counts as *detected* when the standardized output script no longer
contains it and the output satisfies all constraints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..lang import lemmatize
from .standardizer import LucidScript, StandardizationError, StandardizationResult

__all__ = ["LeakageDetection", "detect_target_leakage"]


@dataclass
class LeakageDetection:
    """Outcome of one leakage-detection run."""

    detected: bool
    removed_ground_truth: List[str]
    missed_ground_truth: List[str]
    result: Optional[StandardizationResult]

    @property
    def recall(self) -> float:
        total = len(self.removed_ground_truth) + len(self.missed_ground_truth)
        if total == 0:
            return 1.0
        return len(self.removed_ground_truth) / total


def _lemmatized_lines(snippet: str) -> List[str]:
    return [line for line in lemmatize(snippet).splitlines() if line]


def detect_target_leakage(
    system: LucidScript,
    script: str,
    injected_snippets: Sequence[str],
) -> LeakageDetection:
    """Standardize *script* and check whether the injected leakage vanished.

    Parameters
    ----------
    system:
        A configured :class:`LucidScript` whose corpus is leakage-free.
    script:
        The (leakage-injected) input script.
    injected_snippets:
        The ground-truth leakage code snippets (each possibly multi-line).
    """
    ground_truth: List[str] = []
    for snippet in injected_snippets:
        ground_truth.extend(_lemmatized_lines(snippet))
    if not ground_truth:
        raise ValueError("injected_snippets must contain at least one statement")

    try:
        result = system.standardize(script)
    except StandardizationError:
        return LeakageDetection(
            detected=False,
            removed_ground_truth=[],
            missed_ground_truth=list(ground_truth),
            result=None,
        )

    output_lines = set(result.output_script.splitlines())
    removed = [line for line in ground_truth if line not in output_lines]
    missed = [line for line in ground_truth if line in output_lines]
    detected = bool(removed) and not missed and result.intent_satisfied
    return LeakageDetection(
        detected=detected,
        removed_ground_truth=removed,
        missed_ground_truth=missed,
        result=result,
    )
