"""The online search framework (Section 5.2, Algorithms 1-3).

Beam search over transformation sequences: each candidate holds a working
statement list, the transformations applied so far, and a monotonicity
frontier.  ``GetSteps`` ranks legal next transformations by the relative
entropy of the script they would produce; ``GetTopKBeams`` (optionally with
the diversity clustering of Algorithm 3) extends the beam set; constraint
verification happens early (α = on) or late.

The execution-constraint hot path (Figure 7's dominant cost) runs through
:meth:`BeamSearch.check_if_executes` on an
:class:`~repro.sandbox.IncrementalExecutor`, which resumes each candidate
from the longest snapshotted statement prefix — beam candidates share
prefixes by construction, because the monotone frontier moves edits
left-to-right.  A passing check keeps the candidate's output table, which
constraint verification takes (:meth:`BeamSearch.take_output`) instead of
running the candidate again.

Checks run under an optional execution budget (``LSConfig.exec_timeout_s``):
a candidate that exceeds it fails ``CheckIfExecutes`` and is skipped —
counted in the executor's ``stats.timeouts`` but never fatal to the
search.
"""

from __future__ import annotations

import copy
import time
from bisect import insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .._audit import AuditMismatchError
from .._lru import LRUCache
from ..dialects import get_dialect
from ..lang.errors import ScriptError
from ..lang.parser import (
    EdgeState,
    Statement,
    compute_edge_counts,
    parse_statement,
)
from ..lang.vocabulary import CorpusVocabulary
from ..minipandas import DataFrame
from ..sandbox import IncrementalExecutor
from .config import LSConfig
from .diversity import cluster_transformations
from .entropy import REStats, RelativeEntropyScorer
from .transformations import (
    ADD,
    DELETE,
    Transformation,
    apply_transformation,
    enumerate_transformations,
)

__all__ = ["Candidate", "SearchStats", "BeamSearch"]

#: Cap on the ranked next-step transformations GetSteps() returns.
MAX_STEP_CANDIDATES = 48

#: RE scores within this tolerance compare equal during ranking and beam
#: eviction; ties break toward earlier script positions (lower
#: frontiers), which preserves the monotone search's future options.
SCORE_BAND = 0.02


@dataclass(frozen=True)
class Candidate:
    """One in-progress transformation sequence and its working script."""

    statements: Tuple[Statement, ...]
    applied: Tuple[Transformation, ...]
    frontier: int
    score: float

    def source(self) -> str:
        # memoized: the join is re-requested by ranking, archive keys,
        # and verification for the same immutable candidate
        cached = self.__dict__.get("_source")
        if cached is None:
            cached = "\n".join(self.segments())
            object.__setattr__(self, "_source", cached)
        return cached

    def segments(self) -> Tuple[str, ...]:
        """Each statement's text: what the sandbox runs instead of
        re-parsing :meth:`source`, which is their ``"\\n"`` join."""
        return tuple(s.source for s in self.statements)

    @property
    def n_transformations(self) -> int:
        return len(self.applied)


@dataclass
class SearchStats:
    """What one search spent and did.

    The four timings are Figure 7's components, and :meth:`breakdown`
    returns them under the figure's names.  The counts are the ones the
    per-layer benchmark sums: steps ranked, delta scores and full
    recounts (GetSteps), intent checks and short circuits
    (VerifyConstraints), and the shared executor's prefix-snapshot hits,
    misses and mean resumed depth over this search.
    """

    get_steps_s: float = 0.0
    get_top_k_s: float = 0.0
    check_executes_s: float = 0.0
    verify_constraints_s: float = 0.0
    n_steps_enumerated: int = 0
    n_delta_scores: int = 0
    n_full_recounts: int = 0
    n_intent_checks: int = 0
    #: always 0: an intent is prepared per search, never reused; kept
    #: because per-layer metrics sum it by name
    n_intent_cache_hits: int = 0
    n_intent_short_circuits: int = 0
    prefix_cache_hits: int = 0
    prefix_cache_misses: int = 0
    prefix_mean_resume_depth: float = 0.0

    def breakdown(self) -> Dict[str, float]:
        """Figure 7's four runtime components, in seconds."""
        return {
            "GetSteps": self.get_steps_s,
            "GetTopKBeams": self.get_top_k_s,
            "CheckIfExecutes": self.check_executes_s,
            "VerifyConstraints": self.verify_constraints_s,
        }


class BeamSearch:
    """Algorithm 1's meta-level framework over a fixed corpus vocabulary."""

    def __init__(
        self,
        vocabulary: CorpusVocabulary,
        scorer: RelativeEntropyScorer,
        config: LSConfig,
        data_dir: Optional[str] = None,
        exec_checker: Optional[Callable[[str], bool]] = None,
        executor: Optional[IncrementalExecutor] = None,
    ):
        self.vocabulary = vocabulary
        self.scorer = scorer
        self.config = config
        self.operation_groups = None
        if config.operation_groups is not None:
            from .grouping import group_operations

            self.operation_groups = group_operations(vocabulary, config.operation_groups)
        self._exec_checker = exec_checker
        self._dialect = get_dialect(config.dialect)
        self._executor = executor
        if self._executor is None and exec_checker is None:
            self._executor = IncrementalExecutor(
                data_dir=data_dir,
                sample_rows=config.sample_rows,
                verify=config.audit,
                exec_timeout_s=config.exec_timeout_s,
                dialect=self._dialect,
            )
        # executors may be shared across searches; stats report deltas
        self._executor_baseline = (
            copy.copy(self._executor.stats) if self._executor else None
        )
        self._exec_cache: LRUCache = LRUCache(self.EXEC_CACHE_LIMIT)
        #: source -> output table of a passing check, until verification
        #: takes it; at most as many as the archive hands over
        self._outputs: LRUCache = LRUCache(self.ARCHIVE_LIMIT)
        self._archive: Dict[str, Candidate] = {}
        self.stats = SearchStats()

    #: Upper bound on archived candidates handed to constraint verification.
    ARCHIVE_LIMIT = 64

    #: Capacity of the per-search execution memo.  A search touches a few
    #: hundred distinct sources; the bound only matters for long-lived
    #: searches (large seq × beam × corpus).
    EXEC_CACHE_LIMIT = 4096

    # ------------------------------------------------------------- components
    def _band(self, score: float) -> int:
        """Quantize a score so near-equal candidates compare equal.

        Within a band, ties break toward earlier positions/frontiers: a
        monotone search that edits left-to-right keeps every later line
        reachable, whereas editing the tail first locks the prefix.  This
        matters for multi-line nonstandard snippets (e.g. target leakage,
        Section 6.6) whose per-line deletions score almost identically.
        """
        return int(round(score / SCORE_BAND))

    def check_if_executes(
        self, source: str, segments: Optional[Tuple[str, ...]] = None
    ) -> bool:
        """CheckIfExecutes() with memoization across the whole search.

        *segments* (the candidate's statement texts) let the incremental
        executor skip re-parsing *source*.  A passing run's output table
        is kept for :meth:`take_output`.  An ``exec_checker`` given at
        construction replaces the executor (tests use it as a fake); it
        yields no tables.
        """
        cached = self._exec_cache.get(source)
        if cached is not None:
            return cached
        start = time.perf_counter()
        if self._exec_checker is not None:
            ok = self._exec_checker(source)
        else:
            result = self._executor.run_script(source, segments=segments)
            ok = result.ok and result.output is not None
            if ok:
                self._outputs[source] = result.output
        self.stats.check_executes_s += time.perf_counter() - start
        self._exec_cache[source] = ok
        return ok

    def take_output(self, source: str) -> Optional[DataFrame]:
        """The output table *source*'s passing check produced, handed
        over once; None if no check kept one (``early_check`` off, an
        ``exec_checker`` fake, or evicted), so the caller runs it."""
        return self._outputs.pop(source)

    def _parsed_statement(self, source: str) -> Statement:
        """An add-candidate statement, parsed once per process."""
        return parse_statement(source, self._dialect)

    def _projected_score(
        self, statements: Sequence[Statement], transformation: Transformation
    ) -> float:
        """Score a transformation via the marginal P(x) update (Sec. 5.2):
        splice a virtual sequence view and recount edges positionally,
        without materializing new Statement objects."""
        virtual = list(statements)
        if transformation.kind == DELETE:
            if not 0 <= transformation.position < len(virtual):
                raise IndexError(transformation.position)
            del virtual[transformation.position]
        else:
            if not 0 <= transformation.position <= len(virtual):
                raise IndexError(transformation.position)
            virtual.insert(
                transformation.position,
                self._parsed_statement(transformation.statement_source),
            )
        return self.scorer.score_edge_counts(compute_edge_counts(virtual))

    def _score_state(self, candidate: Candidate) -> Tuple[EdgeState, REStats]:
        """The candidate's (edge state, sufficient statistics) pair, from
        one full recount, counted in ``SearchStats.n_full_recounts``."""
        edge_state = EdgeState.from_statements(candidate.statements)
        self.stats.n_full_recounts += 1
        return edge_state, self.scorer.stats_from_counts(edge_state.counts)

    def _delta_for(
        self, edge_state: EdgeState, transformation: Transformation
    ) -> Dict[Tuple[str, str], int]:
        if transformation.kind == DELETE:
            return edge_state.delta_delete(transformation.position)
        return edge_state.delta_insert(
            transformation.position,
            self._parsed_statement(transformation.statement_source),
        )

    def _delta_score(
        self,
        candidate: Candidate,
        edge_state: EdgeState,
        re_stats: REStats,
        transformation: Transformation,
    ) -> float:
        """Score one transformation off the parent's state in O(Δ).

        With ``config.audit`` on, the full recount runs alongside and
        any divergence — in value *or* in raised-exception behaviour —
        raises :class:`~repro.core.AuditMismatchError` (layer
        ``scoring``; bit-identity is the delta engine's contract, so the
        comparison is exact, not approximate).
        """
        if not self.config.audit:
            delta = self._delta_for(edge_state, transformation)
            return self.scorer.score_delta(re_stats, edge_state.counts, delta)
        try:
            delta = self._delta_for(edge_state, transformation)
            score: Optional[float] = self.scorer.score_delta(
                re_stats, edge_state.counts, delta
            )
            delta_error: Optional[BaseException] = None
        except (ScriptError, IndexError, ValueError) as exc:
            score, delta_error = None, exc
        try:
            full: Optional[float] = self._projected_score(
                candidate.statements, transformation
            )
            full_error: Optional[BaseException] = None
        except (ScriptError, IndexError, ValueError) as exc:
            full, full_error = None, exc
        if (delta_error is None) != (full_error is None) or (
            score is not None and score != full
        ):
            raise AuditMismatchError(
                "scoring",
                f"incremental score {score!r} (error={delta_error!r}) != "
                f"full recount {full!r} (error={full_error!r}) for "
                f"{transformation.describe()} on {candidate.source()!r}"
            )
        if delta_error is not None:
            raise delta_error
        return score  # type: ignore[return-value]

    def get_steps(self, candidate: Candidate) -> List[Tuple[Transformation, float]]:
        """GetSteps(): rank legal next transformations by projected RE.

        Every proposal is scored by the marginal-update engine: one
        recount of the candidate gives its edge state, each proposal's
        O(Δ) edge delta comes off that state, and the sufficient
        statistics turn it into the new RE without touching untouched
        edges.
        """
        start = time.perf_counter()
        added = {t.signature for t in candidate.applied if t.kind == ADD}
        deleted = {t.signature for t in candidate.applied if t.kind == DELETE}
        raw = enumerate_transformations(
            candidate.statements,
            self.vocabulary,
            frontier=candidate.frontier,
            forbidden_adds=deleted,
            forbidden_deletes=added,
            operation_groups=self.operation_groups,
        )
        edge_state, re_stats = self._score_state(candidate)
        ranked: List[Tuple[Transformation, float]] = []
        for transformation in raw:
            try:
                score = self._delta_score(candidate, edge_state, re_stats, transformation)
            except (ScriptError, IndexError, ValueError):
                continue
            self.stats.n_delta_scores += 1
            ranked.append((transformation, score))
        ranked.sort(key=lambda pair: (self._band(pair[1]), pair[0].position, pair[1]))
        ranked = ranked[:MAX_STEP_CANDIDATES]
        self.stats.get_steps_s += time.perf_counter() - start
        self.stats.n_steps_enumerated += len(ranked)
        return ranked

    def _extend(self, candidate: Candidate, transformation: Transformation,
                score: float) -> Candidate:
        # the statement GetSteps scored, parsed with this search's dialect
        added = (
            self._parsed_statement(transformation.statement_source)
            if transformation.kind == ADD
            else None
        )
        statements = apply_transformation(candidate.statements, transformation, added)
        if transformation.kind == ADD:
            frontier = transformation.position + 1
        elif transformation.position < candidate.frontier:
            # a delete before the add-frontier shifts later lines down
            frontier = candidate.frontier - 1
        else:
            frontier = candidate.frontier
        return Candidate(
            statements=tuple(statements),
            applied=candidate.applied + (transformation,),
            frontier=frontier,
            score=score,
        )

    def get_top_k_beams(
        self,
        beams: List[Candidate],
        candidate: Candidate,
        ranked: Sequence[Tuple[Transformation, float]],
        k: int,
    ) -> List[Candidate]:
        """Algorithm 2: extend *candidate* by each ranked transformation,
        admitting a new script when it beats the current worst beam (or the
        beam set is not yet full), after the optional early execution check.

        The beam set never exceeds ``beam_size``: when full, a newcomer
        either replaces the evicted worst member or — if it *is* the worst
        — goes straight to the archive without entering the beam set.

        The beam set is kept sorted by the eviction key throughout, so
        each admission decision reads the worst member in O(1) and each
        insertion costs O(log K) comparisons (``insort``) instead of the
        former per-candidate ``sort`` + ``max`` scan.  The stable upfront
        sort preserves the legacy order among key-ties (both paths keep
        equal-key members in insertion order), so admissions and
        evictions are unchanged.
        """
        start = time.perf_counter()
        beams = sorted(beams, key=self._beam_key)
        sources = {b.source() for b in beams}
        admitted = 0
        for transformation, score in ranked:
            if admitted >= k:
                break
            # the tail of the kept-sorted beam set maximizes (band,
            # frontier, score); band is monotone in score, so its band
            # equals the band of the former max-score scan
            if beams and not (
                self._band(score) <= self._band(beams[-1].score)
                or len(beams) < self.config.beam_size
            ):
                continue
            extended = self._extend(candidate, transformation, score)
            source = extended.source()
            if source in sources:
                continue
            if self.config.early_check:
                # pause the top-k clock while the sandbox runs
                self.stats.get_top_k_s += time.perf_counter() - start
                valid = self.check_if_executes(source, extended.segments())
                start = time.perf_counter()
                if not valid:
                    continue
            self._archive.setdefault(source, extended)
            admitted += 1
            if len(beams) >= self.config.beam_size:
                if self._beam_key(extended) >= self._beam_key(beams[-1]):
                    continue  # would be evicted immediately; archive only
                dropped = beams.pop()
                sources.discard(dropped.source())
            insort(beams, extended, key=self._beam_key)
            sources.add(source)
        self.stats.get_top_k_s += time.perf_counter() - start
        return beams

    def _beam_key(self, candidate: Candidate):
        """Eviction/order key: banded score, then the lower frontier wins."""
        return (self._band(candidate.score), candidate.frontier, candidate.score)

    def get_diverse_top_k_beams(
        self,
        beams: List[Candidate],
        candidate: Candidate,
        ranked: Sequence[Tuple[Transformation, float]],
    ) -> List[Candidate]:
        """Algorithm 3: iterate clusters, drawing K/M beams from each."""
        transformations = [t for t, _ in ranked]
        score_by_transformation = {t: s for t, s in ranked}
        clusters = cluster_transformations(transformations, self.config.clusters)
        per_cluster = max(1, self.config.beam_size // max(len(clusters), 1))
        for cluster in clusters:
            cluster_ranked = [(t, score_by_transformation[t]) for t in cluster]
            beams = self.get_top_k_beams(beams, candidate, cluster_ranked, per_cluster)
        return beams

    def sync_cache_stats(self) -> None:
        """Fold the executor's prefix-snapshot counters into :attr:`stats`.

        The standardizer shares one executor across searches (so
        constraint verification resumes from prefixes the beam search
        already snapshotted), so the counts are the delta since this
        search started.
        """
        if self._executor is None:
            return
        now, base = self._executor.stats, self._executor_baseline
        hits = now.prefix_hits - base.prefix_hits
        resumed = now.resumed_statements - base.resumed_statements
        self.stats.prefix_cache_hits = hits
        self.stats.prefix_cache_misses = now.prefix_misses - base.prefix_misses
        self.stats.prefix_mean_resume_depth = resumed / hits if hits else 0.0

    # ----------------------------------------------------------------- search
    def search(self, statements: Sequence[Statement]) -> List[Candidate]:
        """Run the beam search and return candidates sorted by RE score.

        Besides the final beams, the result includes an *archive* of every
        candidate admitted to a beam at any iteration (capped at
        ``ARCHIVE_LIMIT`` best by score).  Constraint verification walks
        this list in score order, so when the most standard candidates
        violate a strict user-intent threshold, milder intermediate
        candidates are still available instead of falling straight back to
        the original.  The unmodified script is always a member.
        """
        initial = Candidate(
            statements=tuple(statements),
            applied=(),
            frontier=0,
            score=self.scorer.score_statements(list(statements)),
        )
        self._archive = {initial.source(): initial}
        beams = [initial]
        for _ in range(self.config.seq):
            frontier_beams = list(beams)
            for candidate in beams:
                ranked = self.get_steps(candidate)
                if not ranked:
                    continue
                if self.config.diversity:
                    frontier_beams = self.get_diverse_top_k_beams(
                        frontier_beams, candidate, ranked
                    )
                else:
                    frontier_beams = self.get_top_k_beams(
                        frontier_beams, candidate, ranked, self.config.beam_size
                    )
            frontier_beams.sort(key=self._beam_key)
            frontier_beams = frontier_beams[: max(self.config.beam_size, 1)]
            if [b.source() for b in frontier_beams] == [b.source() for b in beams]:
                break  # converged: no transformation improved any beam
            beams = frontier_beams

        candidates = sorted(self._archive.values(), key=lambda b: b.score)
        candidates = candidates[: self.ARCHIVE_LIMIT]
        if all(c.source() != initial.source() for c in candidates):
            candidates.append(initial)  # the guaranteed fallback
        self.sync_cache_stats()
        return candidates
