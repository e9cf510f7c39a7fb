"""LucidScript — the end-to-end script standardizer (the paper's system).

Offline phase: lemmatize the corpus and curate the search space
(vocabularies + corpus distribution).  Online phase: beam-search
transformation sequences for an input script, verify the execution and
user-intent constraints, and return the most standard surviving script.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from .._audit import AuditMismatchError
from ..corpus import (
    CorpusIndex,
    RetrievalIndex,
    RetrievedScript,
    ScriptRecord,
    cached_index,
)
from ..dialects import get_dialect
from ..lang import CorpusVocabulary, ScriptDAG, ScriptError, parse_script
from ..minipandas import DataFrame
from ..minipandas.kernels import kernel_audit
from ..ml import DownstreamEvaluationError
from ..sandbox import ExecutionResult, IncrementalExecutor
from .beam import BeamSearch, Candidate, SearchStats
from .config import LSConfig
from .entropy import RelativeEntropyScorer, percent_improvement
from .intent import IntentMeasure, PreparedIntent
from .transformations import Transformation

__all__ = ["LucidScript", "StandardizationResult", "StandardizationError", "summarize"]


class StandardizationError(ScriptError):
    """The input script cannot be standardized (e.g. it does not execute)."""


def _relative_entropy(scorer: RelativeEntropyScorer, p_counts: Counter) -> float:
    """*scorer*'s RE of the edge multiset *p_counts*.

    RE is undefined when the script or the corpus has no data-flow
    edges; the scorer's ``ValueError`` (which GetSteps relies on to skip
    an edgeless candidate) becomes a :class:`StandardizationError` here,
    where the scored script is the caller's input.
    """
    try:
        return scorer.score_edge_counts(p_counts)
    except ValueError as exc:
        raise StandardizationError(str(exc)) from exc


@dataclass
class StandardizationResult:
    """Outcome of one standardization run."""

    input_script: str
    output_script: str
    re_before: float
    re_after: float
    transformations: Tuple[Transformation, ...]
    intent_delta: Optional[float]
    intent_satisfied: bool
    stats: SearchStats

    @property
    def improvement(self) -> float:
        """% improvement in relative entropy (the paper's Table 5 metric)."""
        return percent_improvement(self.re_before, self.re_after)

    @property
    def changed(self) -> bool:
        return self.output_script != self.input_script

    def removed_statements(self) -> List[str]:
        """Lemmatized statements present in the input but not the output."""
        before = Counter(self.input_script.splitlines())
        after = Counter(self.output_script.splitlines())
        removed: List[str] = []
        for line, count in (before - after).items():
            removed.extend([line] * count)
        return removed

    def added_statements(self) -> List[str]:
        """Lemmatized statements present in the output but not the input."""
        before = Counter(self.input_script.splitlines())
        after = Counter(self.output_script.splitlines())
        added: List[str] = []
        for line, count in (after - before).items():
            added.extend([line] * count)
        return added

    def to_dict(self) -> Dict[str, Any]:
        """The deterministic fields, as a ``standardize`` job returns them."""
        return {
            "changed": self.changed,
            "improvement": self.improvement,
            "intent_delta": self.intent_delta,
            "intent_satisfied": self.intent_satisfied,
            "output_script": self.output_script,
            "re_after": self.re_after,
            "re_before": self.re_before,
            "transformations": [t.describe() for t in self.transformations],
        }

    def summary(self) -> str:
        return summarize(self.to_dict())


def summarize(result: Dict[str, Any]) -> str:
    """The RE, intent and transformation lines of a ``to_dict()`` result."""
    lines = [
        f"RE: {result['re_before']:.3f} -> {result['re_after']:.3f} "
        f"({result['improvement']:+.1f}% improvement)",
    ]
    if result["intent_delta"] is not None:
        lines.append(f"intent delta: {result['intent_delta']:.3f}")
    lines.extend(f"  {described}" for described in result["transformations"])
    return "\n".join(lines)


class LucidScript:
    """Bottom-up script standardization against a corpus of peer scripts.

    Parameters
    ----------
    corpus:
        Peer data-preparation scripts that process the same (or a
        similar) dataset.  Accepts raw source texts, a prebuilt
        :class:`repro.corpus.CorpusIndex` (e.g. loaded from a snapshot
        and ``refresh()``-ed), a ready :class:`CorpusVocabulary`, or a
        :class:`repro.corpus.RetrievalIndex` over a large script pool —
        in which case curation is deferred and the working corpus is
        the pool's ``config.retrieval_k`` nearest neighbours of each
        query script (see ``_retrieved``).  :meth:`score` reads only
        the neighbours' edge counts, so ``vocabulary`` and ``scorer``
        stay None until the system standardizes a script; they then
        hold the working corpus of the last standardized query.
        Raw texts route through the process-wide content-addressed warm
        cache, so repeated constructions over the same corpus skip the
        offline phase.
    data_dir:
        Directory holding the dataset's CSV files; scripts' ``read_csv``
        paths are resolved against it.
    intent:
        A user-intent measure (:class:`TableJaccardIntent` or
        :class:`ModelPerformanceIntent`); None disables the intent
        constraint (execution constraint still applies).
    config:
        Search parameters; see :class:`LSConfig` and Table 2 defaults.
    """

    def __init__(
        self,
        corpus,
        data_dir: Optional[str] = None,
        intent: Optional[IntentMeasure] = None,
        config: Optional[LSConfig] = None,
    ):
        self.config = config or LSConfig()
        #: the API surface every script in this system is written against
        self.dialect = get_dialect(self.config.dialect)
        self._retrieval: Optional[RetrievalIndex] = None
        #: the last retrieved query's content hash and its top-k hits
        self._retrieval_query_hash: Optional[str] = None
        self._retrieval_hits: List[RetrievedScript] = []
        if isinstance(corpus, RetrievalIndex):
            # Retrieve-then-compute: the working corpus is a function of
            # the query script, so curation defers to the first
            # standardize() call (see _ensure_search_space).
            self._retrieval = corpus
            self.vocabulary: Optional[CorpusVocabulary] = None
            self.scorer: Optional[RelativeEntropyScorer] = None
        else:
            # Offline phase (Section 5.1): curate the search space once —
            # or adopt a prebuilt/warm-cached index, which is bit-identical.
            self.vocabulary = self._curate(corpus)
            self.scorer = RelativeEntropyScorer(self.vocabulary)
        self.data_dir = data_dir
        self.intent = intent
        self._executor: Optional[IncrementalExecutor] = None

    def _check_corpus_dialect(self, supplied: str, what: str) -> None:
        if supplied != self.dialect.name:
            raise StandardizationError(
                f"{what} was built for dialect {supplied!r} but this system "
                f"is configured for {self.dialect.name!r}"
            )

    def _curate(self, corpus) -> CorpusVocabulary:
        """Resolve *corpus* (scripts | index | vocabulary) to a vocabulary."""
        if isinstance(corpus, CorpusIndex):
            self._check_corpus_dialect(corpus.dialect, "the supplied corpus index")
            if self.config.audit:
                corpus.verify()
            return corpus.to_vocabulary()
        if isinstance(corpus, CorpusVocabulary):
            return corpus
        index = cached_index(corpus, dialect=self.dialect.name)
        if self.config.audit:
            index.verify()
        return index.to_vocabulary()

    def _retrieved(
        self, query: Union[str, ScriptDAG]
    ) -> Tuple[ScriptRecord, List[RetrievedScript]]:
        """The query's store record and its pool neighbours.

        Only for a system built over a
        :class:`~repro.corpus.RetrievalIndex`.  *query* is the script
        text, or its DAG when the caller parsed it already, which the
        store then does not parse again.  The record's ``source`` is the
        lemmatized script.  Its signature selects
        ``config.retrieval_k`` pool neighbours (``config.audit`` checks
        the selection against brute force).  ``top_k`` runs once per query content: the hits are
        kept until a different script is queried, which also drops the
        working corpus assembled from the old ones.
        """
        self._check_corpus_dialect(
            self._retrieval.store.dialect, "the supplied retrieval index"
        )
        store = self._retrieval.store
        if isinstance(query, ScriptDAG):
            record = store.get_or_build(query)
        else:
            record = store.get_or_parse(query)
        if record is None:
            raise StandardizationError(
                "input script does not parse, so no corpus can be retrieved for it"
            )
        if self._retrieval_query_hash != record.content_hash:
            hits = self._retrieval.top_k(
                record.signature,
                self.config.retrieval_k,
                verify=self.config.audit,
            )
            if not hits:
                raise StandardizationError(
                    "retrieval produced no working corpus: "
                    "retrieval returned no scripts to assemble a corpus from"
                )
            self._retrieval_query_hash = record.content_hash
            self._retrieval_hits = hits
            self.vocabulary = self.scorer = None
        return record, self._retrieval_hits

    def _ensure_search_space(self, query: Union[str, ScriptDAG]) -> None:
        """Curate the retrieval-backed search space for *query* (a script
        or its DAG, as :meth:`_retrieved` takes it).

        No-op unless this system was built over a
        :class:`~repro.corpus.RetrievalIndex`.  Otherwise the query's
        neighbours (:meth:`_retrieved`) are assembled into a working
        :class:`CorpusIndex` through the record-delta path, and the
        search proceeds exactly as with a hand-curated corpus.  The
        assembled space belongs to the query's content address, so
        repeated calls over the same script reuse it and a different
        script re-retrieves.
        """
        if self._retrieval is None:
            return
        _, hits = self._retrieved(query)
        if self.vocabulary is not None:
            return
        corpus = self._retrieval.assemble_from_hits(hits)
        if self.config.audit:
            corpus.verify()
        self.vocabulary = corpus.to_vocabulary()
        self.scorer = RelativeEntropyScorer(self.vocabulary)

    def _prepared_intent(self, original_output: DataFrame) -> Optional[PreparedIntent]:
        """The verification state of this original for one search, or
        None when the intent constraint is disabled.  It is dropped when
        the search returns."""
        if self.intent is None:
            return None
        return self.intent.prepare(original_output, verify=self.config.audit)

    def _shared_executor(self) -> IncrementalExecutor:
        """One incremental executor per (data_dir, sample_rows, dialect).

        Shared between the beam search and constraint verification — and
        across standardize() calls — so every phase resumes from prefixes
        any earlier phase already snapshotted.  Rebuilt if the config's
        sampling (or dialect) changes — snapshots are only valid within
        one setting.  The execution budget and the sandbox audit
        (``config.audit``) act on each run and never enter a snapshot,
        so they are set on the kept executor instead.
        """
        if (
            self._executor is None
            or self._executor.sample_rows != self.config.sample_rows
            or self._executor.dialect.name != self.dialect.name
        ):
            self._executor = IncrementalExecutor(
                data_dir=self.data_dir,
                sample_rows=self.config.sample_rows,
                dialect=self.dialect,
            )
        self._executor.exec_timeout_s = self.config.exec_timeout_s
        self._executor.verify = self.config.audit
        return self._executor

    # ------------------------------------------------------------------ scoring
    def score(self, script: str) -> float:
        """RE(s, S) of an arbitrary script against this corpus.

        On the retrieval path the corpus itself is a function of the
        script: it is the pool's top-k neighbours of *script*.  RE sums
        over the script's own edges, so the score reads the query
        record's edge counts and the neighbours' counts on those edges
        and in total (:meth:`RelativeEntropyScorer.on_edges`); no working
        corpus is assembled.  With ``config.audit`` it is assembled and
        verified too, and its scorer must give the same float, or
        :class:`~repro.core.AuditMismatchError` (layer ``index``) is
        raised.

        A script or corpus without data-flow edges raises
        :class:`StandardizationError`.
        """
        if self._retrieval is None:
            dag = parse_script(script, dialect=self.dialect)
            return _relative_entropy(self.scorer, dag.edge_counter())
        record, hits = self._retrieved(script)
        scorer = RelativeEntropyScorer.on_edges(
            record.edge_counts, (hit.record.edge_counts for hit in hits)
        )
        score = _relative_entropy(scorer, record.edge_counts)
        if self.config.audit:
            self._ensure_search_space(script)
            dag = parse_script(record.source, lemmatized=True, dialect=self.dialect)
            assembled = _relative_entropy(self.scorer, dag.edge_counter())
            if assembled.hex() != score.hex():
                raise AuditMismatchError(
                    "index",
                    f"retrieval score {score!r} from the neighbours' edge counts "
                    f"!= {assembled!r} over the assembled corpus"
                )
        return score

    # ------------------------------------------------------------- online phase
    def standardize(self, script: str) -> StandardizationResult:
        """Produce a standardized version of *script* (Definition 4.5)."""
        with kernel_audit(self.config.audit):
            return self._standardize(script)

    def _standardize(self, script: str) -> StandardizationResult:
        dag = parse_script(script, dialect=self.dialect)
        normalized = dag.normalized
        if not dag.statements:
            raise StandardizationError("input script has no statements")
        self._ensure_search_space(dag)
        re_before = _relative_entropy(self.scorer, dag.edge_counter())

        run = self._run(normalized, tuple(s.source for s in dag.statements))
        if run.timed_out:
            # out of time, not a broken script: the caller may retry
            raise StandardizationError(
                f"input script exceeded its {self.config.exec_timeout_s:g}s "
                "execution budget (exec_timeout_s) before it could be standardized"
            )
        if not run.ok or run.output is None:
            raise StandardizationError(
                "input script must execute and emit a table before it can be standardized"
            )
        original_output = run.output

        search = BeamSearch(
            self.vocabulary,
            self.scorer,
            self.config,
            data_dir=self.data_dir,
            executor=self._shared_executor(),
        )
        candidates = search.search(dag.statements)
        best, verdict = self._verify_all_constraints(
            candidates, normalized, original_output, search
        )
        intent_delta, intent_ok = self._final_intent(best, verdict, normalized)
        search.sync_cache_stats()  # fold verification-phase cache activity in
        return StandardizationResult(
            input_script=normalized,
            output_script=best.source(),
            re_before=re_before,
            re_after=best.score,
            transformations=best.applied,
            intent_delta=intent_delta,
            intent_satisfied=intent_ok,
            stats=search.stats,
        )

    # ----------------------------------------------------------------- helpers
    def _run(self, source: str, segments: Tuple[str, ...]) -> ExecutionResult:
        """The run of *source*; *segments* (its statement texts) spare the
        incremental executor a re-parse."""
        return self._shared_executor().run_script(source, segments=segments)

    def _verify_all_constraints(
        self,
        candidates: List[Candidate],
        original_source: str,
        original_output: DataFrame,
        search: BeamSearch,
    ) -> Tuple[Candidate, Optional[Tuple[float, bool]]]:
        """VerifyAllConstraints(): return the most standard valid candidate.

        Candidates arrive sorted by RE score; the original script is always
        among them and trivially satisfies every constraint, so the search
        can never make the script less standard (Table 5: min = 0.0).
        The winner is the first candidate in score order that satisfies
        every constraint.  It comes with the ``(delta, ok)`` its intent
        check returned (None for the original or without an intent), so
        it is never run or checked again.  Each candidate's output table
        is the one its execution check produced during the search; only
        a candidate without one (``early_check`` off, an evicted table)
        runs here, and one that exceeds its execution budget simply
        fails verification: the watchdog interrupts it.  The prepared
        intent's check and short-circuit counts are added to
        ``search.stats``.
        """
        start = time.perf_counter()
        prepared = self._prepared_intent(original_output)
        try:
            for candidate in candidates:
                source = candidate.source()
                if source == original_source:
                    return candidate, None
                output = search.take_output(source)
                if output is None:
                    run = self._run(source, candidate.segments())
                    output = run.output if run.ok else None
                if output is None:
                    continue
                verdict = None
                if prepared is not None:
                    try:  # a failing candidate scores 100; only the original raises
                        verdict = prepared.check(output)
                    except DownstreamEvaluationError as exc:
                        raise StandardizationError(
                            f"intent cannot evaluate the input script's output: {exc}"
                        ) from exc
                    if not verdict[1]:
                        continue
                return candidate, verdict
            raise StandardizationError(
                "no candidate (not even the original) survived verification"
            )
        finally:
            search.stats.verify_constraints_s += time.perf_counter() - start
            if prepared is not None:
                search.stats.n_intent_checks += prepared.checks
                search.stats.n_intent_short_circuits += prepared.short_circuits

    def _final_intent(
        self,
        best: Candidate,
        verdict: Optional[Tuple[float, bool]],
        original_source: str,
    ) -> Tuple[Optional[float], bool]:
        """The winner's ``(intent_delta, intent_satisfied)``.

        A changed winner arrives with the *verdict* verification just
        computed for it, so it is neither run nor checked again.
        """
        if self.intent is None:
            return None, True
        if best.source() == original_source:
            # identical script: Jaccard similarity 1 / accuracy delta 0
            identity = 1.0 if self.intent.name == "table_jaccard" else 0.0
            return identity, True
        return verdict
