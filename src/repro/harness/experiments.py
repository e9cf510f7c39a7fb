"""Experiment drivers for the Section 6 evaluation.

The paper's protocol (Section 6.1.3/6.1.4): for each competition, iterate
over the corpus leave-one-out — each script becomes the user input script
and the rest the corpus — run a method, and report the distribution of
% improvement in relative entropy.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..baselines import Baseline
from ..corpus import RetrievalIndex, cached_index, shared_store
from ..core import (
    IntentMeasure,
    LSConfig,
    LucidScript,
    ModelPerformanceIntent,
    StandardizationError,
    TableJaccardIntent,
    percent_improvement,
)
from ..core.entropy import RelativeEntropyScorer
from ..lang import CorpusVocabulary, ScriptError, parse_script
from ..workloads import ScriptCorpus

__all__ = [
    "ImprovementStats",
    "MethodRun",
    "evaluate_lucidscript",
    "evaluate_baseline",
    "make_intent",
]


@dataclass(frozen=True)
class ImprovementStats:
    """Table 5-style summary of a % improvement distribution."""

    minimum: float
    median: float
    maximum: float
    mean: float
    n: int

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "ImprovementStats":
        if not values:
            raise ValueError("cannot summarize an empty result set")
        arr = np.asarray(values, dtype=float)
        return cls(
            minimum=float(arr.min()),
            median=float(np.median(arr)),
            maximum=float(arr.max()),
            mean=float(arr.mean()),
            n=len(arr),
        )

    def row(self) -> Dict[str, float]:
        return {
            "min": round(self.minimum, 1),
            "median": round(self.median, 1),
            "max": round(self.maximum, 1),
            "mean": round(self.mean, 1),
        }


@dataclass
class MethodRun:
    """Per-script outcomes of running one method over a competition."""

    method: str
    dataset: str
    improvements: List[float] = field(default_factory=list)
    intent_deltas: List[float] = field(default_factory=list)
    runtimes_s: List[float] = field(default_factory=list)
    breakdowns: List[Dict[str, float]] = field(default_factory=list)
    output_scripts: List[str] = field(default_factory=list)

    def stats(self) -> ImprovementStats:
        return ImprovementStats.from_values(self.improvements)

    def median_breakdown(self) -> Dict[str, float]:
        """Median per-component runtime across scripts (Figure 7)."""
        if not self.breakdowns:
            return {}
        keys = self.breakdowns[0].keys()
        return {
            key: float(np.median([b[key] for b in self.breakdowns])) for key in keys
        }


def make_intent(
    kind: str,
    corpus: ScriptCorpus,
    tau: Optional[float] = None,
) -> IntentMeasure:
    """Build the τ_J or τ_M intent measure for a competition."""
    if kind in ("jaccard", "tau_j"):
        return TableJaccardIntent(tau=0.9 if tau is None else tau)
    if kind in ("model", "tau_m"):
        return ModelPerformanceIntent(
            target=corpus.target,
            tau=1.0 if tau is None else tau,
            task=corpus.task,
        )
    raise ValueError(f"unknown intent kind: {kind!r}")


def evaluate_lucidscript(
    corpus: ScriptCorpus,
    intent_kind: str = "jaccard",
    tau: Optional[float] = None,
    config: Optional[LSConfig] = None,
    max_scripts: Optional[int] = None,
    corpus_override: Optional[Sequence[str]] = None,
    retrieval_k: Optional[int] = None,
) -> MethodRun:
    """Leave-one-out evaluation of LucidScript on one competition.

    Parameters
    ----------
    corpus:
        The competition whose scripts serve as user inputs.
    intent_kind:
        'jaccard' (τ_J) or 'model' (τ_M).
    tau:
        Intent threshold; None uses the paper defaults (0.9 / 1%).
    config:
        Search configuration (LS-default when None).
    max_scripts:
        Evaluate only the first N user scripts (for bounded runtimes).
    corpus_override:
        When given, standardize against these scripts instead of the
        leave-one-out remainder (the "different corpus" scenario).
    retrieval_k:
        When set, run the retrieve-then-compute path: each pair's
        reference scripts become a :class:`RetrievalIndex` pool and the
        system curates the input's ``retrieval_k`` nearest neighbours
        instead of the whole remainder (``config.audit`` audits every
        query).  Pool membership is maintained as deltas
        across pairs — the leave-one-out sweep swaps one script in and
        one out per pair instead of rebuilding the pool.
    """
    run = MethodRun(method=f"LS ({intent_kind})", dataset=corpus.name)
    config = config or LSConfig()
    if retrieval_k is not None:
        # a copy, so the caller's config is untouched and LSConfig
        # validates the value before any pair runs
        config = replace(config, retrieval_k=retrieval_k)
    # Curate the full corpus once: every leave-one-out reference corpus
    # is it with one script dropped, so each system construction inside
    # the loop derives its index from this one by retracting that script
    # instead of assembling N-1 records.
    cached_index(corpus.scripts, dialect=config.dialect)
    store = shared_store()
    for script in corpus_override or ():
        store.get_or_parse(script)
    pairs = list(corpus.leave_one_out())
    if max_scripts is not None:
        pairs = pairs[:max_scripts]
    pool: Optional[RetrievalIndex] = None
    pool_ids: Dict[str, int] = {}
    if retrieval_k is not None:
        # one pool for the whole sweep, membership adjusted per pair
        pool = RetrievalIndex(store=store)
        if corpus_override is not None:
            for script in corpus_override:
                pool.add_script(script)
    for user_script, rest in pairs:
        reference = list(corpus_override) if corpus_override is not None else rest
        intent = make_intent(intent_kind, corpus, tau)
        if pool is not None:
            if corpus_override is None:
                _sync_pool(pool, pool_ids, reference)
            system = LucidScript(
                pool, data_dir=corpus.data_dir, intent=intent, config=config
            )
        else:
            system = LucidScript(
                reference, data_dir=corpus.data_dir, intent=intent, config=config
            )
        started = time.perf_counter()
        try:
            result = system.standardize(user_script)
        except (StandardizationError, ScriptError):
            run.improvements.append(0.0)
            run.runtimes_s.append(time.perf_counter() - started)
            continue
        run.runtimes_s.append(time.perf_counter() - started)
        run.improvements.append(result.improvement)
        if result.intent_delta is not None:
            run.intent_deltas.append(result.intent_delta)
        run.breakdowns.append(result.stats.breakdown())
        run.output_scripts.append(result.output_script)
    return run


def _sync_pool(
    pool: RetrievalIndex, pool_ids: Dict[str, int], reference: Sequence[str]
) -> None:
    """Make *pool*'s membership equal *reference*, as pure deltas.

    Successive leave-one-out pairs differ by two scripts (the previous
    user script re-enters, the next one leaves), so each sync touches
    O(1) scripts instead of rebuilding an O(N) pool per pair.
    """
    desired = set(reference)
    for script in [s for s in pool_ids if s not in desired]:
        pool.remove_script(pool_ids.pop(script))
    for script in reference:
        if script not in pool_ids:
            script_id = pool.add_script(script)
            if script_id is not None:
                pool_ids[script] = script_id


def evaluate_baseline(
    baseline: Baseline,
    corpus: ScriptCorpus,
    max_scripts: Optional[int] = None,
) -> MethodRun:
    """Leave-one-out evaluation of a competing method.

    Baselines emit a script without constraint checking; their
    % improvement is measured with the same RE metric against the
    leave-one-out corpus.  Output that no longer parses scores 0 (it
    cannot be *more* standard), matching how unusable rewrites were
    treated in the study.
    """
    run = MethodRun(method=baseline.name, dataset=corpus.name)
    pairs = list(corpus.leave_one_out())
    if max_scripts is not None:
        pairs = pairs[:max_scripts]
    for user_script, rest in pairs:
        vocabulary = CorpusVocabulary.from_scripts(rest)
        scorer = RelativeEntropyScorer(vocabulary)
        started = time.perf_counter()
        output = baseline.rewrite(user_script, rest)
        run.runtimes_s.append(time.perf_counter() - started)
        run.output_scripts.append(output)
        try:
            re_before = scorer.score_dag(parse_script(user_script))
            re_after = scorer.score_dag(parse_script(output))
        except ScriptError:
            run.improvements.append(0.0)
            continue
        run.improvements.append(percent_improvement(re_before, re_after))
    return run
