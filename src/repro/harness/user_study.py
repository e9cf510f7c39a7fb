"""Simulated user study (Figure 3).

The paper recruits 34 students who rate each method's output 1-5 on
(a) standardness w.r.t. corpus step prevalence and (b) helpfulness for the
modeling task.  Humans are unavailable offline, so each rater is modelled
as a noisy monotone function of exactly the quantities the study
instructions asked participants to judge:

* standardness rating  ~ corpus coverage of the script's steps;
* helpfulness rating   ~ corpus coverage blended with intent preservation
  (cold-start "without-user-intent" cases use coverage alone).

The same significance test as the paper (two-sample t-test, p < 0.05)
compares LucidScript against each baseline.  EXPERIMENTS.md flags this
figure as simulated — it validates the rating pipeline, not human
judgment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .._floats import left_sum
from ..lang import CorpusVocabulary, ScriptError, lemmatize

__all__ = ["RaterPanel", "StudyOutcome", "run_user_study"]

N_RATERS = 34
_RATER_NOISE_SD = 0.7


@dataclass
class StudyOutcome:
    """Ratings for one method plus its significance test against LS."""

    method: str
    standard_ratings: List[float]
    helpful_ratings: List[float]

    @property
    def mean_standard(self) -> float:
        return float(np.mean(self.standard_ratings))

    @property
    def mean_helpful(self) -> float:
        return float(np.mean(self.helpful_ratings))


def _step_coverage(script: str, vocabulary: CorpusVocabulary) -> float:
    """Prevalence-weighted coverage: mean corpus frequency of body steps.

    Participants were shown step-prevalence statistics (like Table 1), so
    the rater model scores a script by how *common* its chosen steps are —
    a script of 60%-prevalent steps reads as more standard than one of
    rare steps, even though both are "known" to the corpus.  Imports and
    the data load are excluded (they appear everywhere and carry no
    signal).
    """
    try:
        lines = [l for l in lemmatize(script).splitlines() if l.strip()]
    except ScriptError:
        return 0.0
    body = [
        line
        for line in lines
        if not line.startswith(("import ", "from ")) and "read_csv" not in line
    ]
    if not body:
        return 0.5  # a bare loader: neither standard nor deviant
    return left_sum(vocabulary.statement_frequency(line) for line in body) / len(body)


class RaterPanel:
    """A panel of simulated raters with per-rater bias and noise."""

    def __init__(self, n_raters: int = N_RATERS, seed: int = 0):
        if n_raters < 2:
            raise ValueError("a panel needs at least 2 raters")
        rng = np.random.default_rng(seed)
        self._biases = rng.normal(0.0, 0.3, n_raters)
        self._rng = rng
        self.n_raters = n_raters

    def rate(self, quality: float) -> List[float]:
        """Map a quality score in [0, 1] to a panel of 1-5 ratings."""
        quality = float(np.clip(quality, 0.0, 1.0))
        base = 1.0 + 4.0 * quality
        noise = self._rng.normal(0.0, _RATER_NOISE_SD, self.n_raters)
        return np.clip(base + self._biases + noise, 1.0, 5.0).tolist()


def run_user_study(
    outputs_by_method: Dict[str, str],
    corpus_scripts: Sequence[str],
    intent_preservation: Optional[Dict[str, float]] = None,
    ls_method: str = "LS",
    seed: int = 0,
) -> Dict[str, StudyOutcome]:
    """Rate each method's output script and t-test LS against the rest.

    Parameters
    ----------
    outputs_by_method:
        method name -> its output script for the shared use case.
    corpus_scripts:
        The study's corpus (prevalence statistics shown to raters).
    intent_preservation:
        method -> preservation score in [0, 1] (e.g. table Jaccard); when
        given, helpfulness blends it with coverage ("with-user-intent"
        case); when None the study is the cold-start case.
    """
    if ls_method not in outputs_by_method:
        raise KeyError(f"LS method {ls_method!r} missing from outputs")
    vocabulary = CorpusVocabulary.from_scripts(corpus_scripts)

    # one panel per rated dimension: every method faces the same raters
    # (shared per-rater bias), with fresh per-script noise — as in a real
    # within-subjects study design
    standard_panel = RaterPanel(seed=seed)
    helpful_panel = RaterPanel(seed=seed + 7919)

    methods = sorted(outputs_by_method)
    coverage = {
        m: _step_coverage(outputs_by_method[m], vocabulary) for m in methods
    }
    if intent_preservation is not None:
        helpful = {
            m: 0.5 * coverage[m] + 0.5 * intent_preservation.get(m, 0.5)
            for m in methods
        }
    else:
        helpful = dict(coverage)

    # participants rank the outputs against each other, so qualities are
    # normalized within the case before they become 1-5 ratings
    coverage = _normalize(coverage)
    helpful = _normalize(helpful)

    return {
        m: StudyOutcome(
            method=m,
            standard_ratings=standard_panel.rate(coverage[m]),
            helpful_ratings=helpful_panel.rate(helpful[m]),
        )
        for m in methods
    }


def _normalize(qualities: Dict[str, float]) -> Dict[str, float]:
    """Min-max normalize within a case (comparative rating design)."""
    lo, hi = min(qualities.values()), max(qualities.values())
    if hi - lo < 1e-12:
        return {m: 0.5 for m in qualities}
    return {m: (q - lo) / (hi - lo) for m, q in qualities.items()}


def significance_against(
    outcomes: Dict[str, StudyOutcome], ls_method: str = "LS"
) -> Dict[str, float]:
    """p-values of the standardness t-test: LS vs each baseline.

    scipy is imported here, on the first call: importing ``scipy.stats``
    costs more start-up time and memory than the rest of ``repro``.
    """
    from scipy import stats as scipy_stats

    ls = outcomes[ls_method]
    pvalues: Dict[str, float] = {}
    for method, outcome in outcomes.items():
        if method == ls_method:
            continue
        _, p = scipy_stats.ttest_ind(
            ls.standard_ratings, outcome.standard_ratings, equal_var=False
        )
        pvalues[method] = float(p)
    return pvalues
