"""Transformation explanations (the paper's Section 8 extension).

For every transformation in a standardization result, report the evidence
behind the recommendation: how prevalent the step is in the corpus, how
much it moved the relative-entropy objective, and a human-readable
rationale — "the explanation would inform the user about the frequency of
this operation in the corpus, its impact on the user intent, and the
rationale behind it."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..lang import CorpusVocabulary, parse_script
from .entropy import RelativeEntropyScorer
from .standardizer import StandardizationResult
from .transformations import ADD, apply_transformation

__all__ = ["TransformationExplanation", "explain_result"]


@dataclass(frozen=True)
class TransformationExplanation:
    """Evidence for one recommended transformation."""

    description: str
    kind: str
    statement: str
    #: fraction of corpus scripts containing this statement
    corpus_prevalence: float
    #: RE before and after this step of the sequence
    re_before: float
    re_after: float
    rationale: str

    @property
    def re_delta(self) -> float:
        return self.re_after - self.re_before

    def render(self) -> str:
        prevalence_pct = f"{self.corpus_prevalence * 100:.0f}%"
        return (
            f"{self.description}\n"
            f"    corpus prevalence: {prevalence_pct} of scripts | "
            f"RE {self.re_before:.3f} -> {self.re_after:.3f} "
            f"({self.re_delta:+.3f})\n"
            f"    {self.rationale}"
        )


def _rationale(kind: str, prevalence: float) -> str:
    if kind == ADD:
        if prevalence >= 0.5:
            return (
                "this step is majority practice for this dataset; most peer "
                "scripts apply it"
            )
        if prevalence >= 0.2:
            return "this step is an established convention among peer scripts"
        return (
            "this step follows your existing steps in peer scripts, aligning "
            "the script's data flow with the corpus"
        )
    if prevalence == 0.0:
        return (
            "no peer script uses this step; it is out-of-the-ordinary for "
            "this dataset (possible error or leakage)"
        )
    if prevalence < 0.2:
        return "only a small minority of peer scripts use this step"
    return (
        "removing this step lets the script follow the more common "
        "alternative present in the corpus"
    )


def explain_result(
    result: StandardizationResult,
    vocabulary: CorpusVocabulary,
) -> List[TransformationExplanation]:
    """Explain every transformation in *result*, in application order.

    Replays the transformation sequence over the input script, scoring the
    working script before and after each step against *vocabulary* (the
    corpus the result was produced with).
    """
    scorer = RelativeEntropyScorer(vocabulary)
    statements = list(parse_script(result.input_script, lemmatized=True).statements)
    explanations: List[TransformationExplanation] = []
    score = scorer.score_statements(statements)
    for transformation in result.transformations:
        statements = apply_transformation(statements, transformation)
        new_score = scorer.score_statements(statements)
        statement_text = (
            transformation.statement_source
            if transformation.kind == ADD
            else transformation.signature
        )
        prevalence = vocabulary.statement_frequency(statement_text)
        explanations.append(
            TransformationExplanation(
                description=transformation.describe(),
                kind=transformation.kind,
                statement=statement_text,
                corpus_prevalence=prevalence,
                re_before=score,
                re_after=new_score,
                rationale=_rationale(transformation.kind, prevalence),
            )
        )
        score = new_score
    return explanations
