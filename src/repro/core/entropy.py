"""Relative-entropy standardness scoring (Sections 2.2 and 4).

``RE(s, S) = Σ_x P(x) · log2(P(x) / Q(x))`` where x ranges over data-flow
edges, P is the edge distribution of the script, and Q the edge
distribution of the corpus.  The log base is 2, which reproduces the
paper's worked examples (Example 4.4: RE = 1.38; Example 4.6: RE = 0.2).

Edges the corpus has never seen get a smoothing mass ε in Q so that RE
stays finite while heavily penalizing nonstandard steps.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..lang.parser import ScriptDAG, Statement
from ..lang.vocabulary import CorpusVocabulary, smoothing_mass

__all__ = [
    "REStats",
    "RelativeEntropyScorer",
    "relative_entropy",
    "percent_improvement",
]

EdgeKey = Tuple[str, str]

#: Shared ``c·log2(c)`` term table.  Both the full recount and the delta
#: path read the same float for the same count, which (together with the
#: order-independence of :func:`math.fsum`) makes the two paths
#: bit-identical.
_C_LOG2_C: Dict[int, float] = {}


def _c_log2_c(count: int) -> float:
    term = _C_LOG2_C.get(count)
    if term is None:
        term = count * math.log2(count)
        _C_LOG2_C[count] = term
    return term


def relative_entropy(
    p_counts: Counter,
    q_counts: Counter,
    epsilon: Optional[float] = None,
) -> float:
    """KL divergence (bits) of the P edge distribution from Q.

    ``p_counts``/``q_counts`` are raw occurrence counters; both are
    normalized internally.  Coordinates with P(x)=0 contribute nothing;
    coordinates absent from Q use the ε floor.
    """
    p_total = sum(p_counts.values())
    q_total = sum(q_counts.values())
    if p_total == 0:
        raise ValueError("script has no data-flow edges; RE is undefined")
    if q_total == 0:
        raise ValueError("corpus has no data-flow edges; RE is undefined")
    if epsilon is None:
        epsilon = 0.5 / q_total
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    total = 0.0
    for edge, count in p_counts.items():
        p = count / p_total
        q_count = q_counts.get(edge, 0)
        q = q_count / q_total if q_count else epsilon
        total += p * math.log2(p / q)
    return total


def percent_improvement(re_before: float, re_after: float) -> float:
    """The paper's effectiveness metric: (RE(s_u) − RE(ŝ_u)) / RE(s_u) · 100."""
    if re_before == 0:
        return 0.0
    return (re_before - re_after) / re_before * 100.0


@dataclass(frozen=True)
class REStats:
    """Sufficient statistics of one script's RE score.

    With ``S1 = Σ_x c_x·log2(c_x)`` and ``S2 = Σ_x c_x·log2(q̂_x)`` over
    the script's edge counts ``c_x`` (``q̂_x`` the corpus probability, or
    the ε floor for unseen edges), the score is

        ``RE = (S1 − S2)/T − log2(T)``,   ``T = Σ_x c_x``.

    Instead of running float accumulators (whose add-then-subtract drift
    would break bit-identity with the full recount), the statistics are
    kept as *exact integer histograms*:

    * ``count_hist`` — edge count value → number of edges holding it
      (S1 = Σ n_c · c·log2(c) over its few distinct entries);
    * ``q_hist`` — precomputed ``log2(q̂_x)`` value → total count mass on
      edges sharing it (S2 = Σ w_L · L).

    Histogram updates are integer arithmetic (exact, order-independent),
    and the float sums are taken fresh with :func:`math.fsum` (correctly
    rounded, hence order-independent), so a delta score is bit-identical
    to a from-scratch recount of the changed script while each
    transformation costs O(edges touched + distinct histogram values).
    """

    total: int
    count_hist: Dict[int, int]
    q_hist: Dict[float, int]


class RelativeEntropyScorer:
    """Scores scripts (or raw edge counters) against a fixed corpus.

    Besides whole-script scoring, the scorer maintains the sufficient
    statistics above for the beam search's O(Δ) incremental path:
    :meth:`stats_from_counts` builds them from a script's edge counts,
    and :meth:`score_delta` scores one insert/delete off them without
    rescoring the script.
    """

    def __init__(self, vocabulary: CorpusVocabulary):
        self._vocabulary: Optional[CorpusVocabulary] = vocabulary
        self._set_corpus(vocabulary.edge_counts, vocabulary.total_edges)

    @classmethod
    def on_edges(
        cls, edges: Iterable[EdgeKey], corpus: Iterable[Mapping[EdgeKey, int]]
    ) -> "RelativeEntropyScorer":
        """A scorer that knows the corpus only on *edges*.

        *corpus* holds one edge counter per corpus script.  Q is summed
        on *edges* alone, and the corpus's total edge count sets q̂ and
        ε, so nothing else of the corpus is copied or logged.  A script
        whose edges are all among *edges* scores bit for bit as it does
        against the whole corpus's vocabulary.  ``vocabulary`` is None.
        """
        q_counts = dict.fromkeys(edges, 0)
        total = 0
        for counts in corpus:
            total += sum(counts.values())
            for edge in q_counts:
                q_counts[edge] += counts.get(edge, 0)
        scorer = cls.__new__(cls)
        scorer._vocabulary = None
        scorer._set_corpus(q_counts, total)
        return scorer

    def _set_corpus(self, q_counts: Mapping[EdgeKey, int], q_total: int) -> None:
        self._q_total = q_total
        # precomputed per-edge log2(Q) table; unseen edges share one ε term
        self._log2_epsilon = math.log2(smoothing_mass(q_total))
        q_total = max(q_total, 1)
        self._log2_q: Dict[EdgeKey, float] = {
            edge: math.log2(count / q_total)
            for edge, count in q_counts.items()
            if count
        }

    @property
    def vocabulary(self) -> Optional[CorpusVocabulary]:
        return self._vocabulary

    def log2_q(self, edge: EdgeKey) -> float:
        """``log2(q̂)`` for one edge (the ε floor when the corpus lacks it)."""
        return self._log2_q.get(edge, self._log2_epsilon)

    # ------------------------------------------------- sufficient statistics
    def stats_from_counts(self, p_counts: Mapping[EdgeKey, int]) -> REStats:
        """Bootstrap the sufficient statistics from an edge multiset."""
        total = 0
        count_hist: Dict[int, int] = {}
        q_hist: Dict[float, int] = {}
        log2_q = self._log2_q
        log2_eps = self._log2_epsilon
        for edge, count in p_counts.items():
            if count <= 0:
                continue
            total += count
            count_hist[count] = count_hist.get(count, 0) + 1
            level = log2_q.get(edge, log2_eps)
            q_hist[level] = q_hist.get(level, 0) + count
        return REStats(total, count_hist, q_hist)

    def score_stats(self, stats: REStats) -> float:
        """``RE = (S1 − S2)/T − log2(T)`` off the histograms."""
        if stats.total <= 0:
            raise ValueError("script has no data-flow edges; RE is undefined")
        s1 = math.fsum(n * _c_log2_c(c) for c, n in stats.count_hist.items())
        s2 = math.fsum(w * level for level, w in stats.q_hist.items())
        return (s1 - s2) / stats.total - math.log2(stats.total)

    def score_delta(
        self,
        base_stats: REStats,
        base_counts: Mapping[EdgeKey, int],
        delta: Mapping[EdgeKey, int],
    ) -> float:
        """Score of the script *after* the ``{edge: change}`` *delta* — O(Δ).

        ``base_counts`` is the pre-delta edge multiset (the paired
        :class:`~repro.lang.parser.EdgeState`'s ``counts``), needed to
        move each touched edge between count-histogram buckets.

        Only small *patch* overlays on the base histograms are built:
        the :func:`math.fsum` term multiset equals a recount's (base
        buckets not in the patch, plus non-zero patched buckets), and
        fsum is order-independent, so the score matches the
        from-scratch recount exactly.
        """
        count_hist = base_stats.count_hist
        q_hist = base_stats.q_hist
        total = base_stats.total
        cpatch: Dict[int, int] = {}
        qpatch: Dict[float, int] = {}
        log2_q = self._log2_q
        log2_eps = self._log2_epsilon
        for edge, change in delta.items():
            if not change:
                continue
            old = base_counts.get(edge, 0)
            new = old + change
            if new < 0:
                raise ValueError(f"delta drives edge {edge!r} below zero")
            total += change
            if old:
                cur = cpatch.get(old)
                if cur is None:
                    cur = count_hist.get(old, 0)
                cpatch[old] = cur - 1
            if new:
                cur = cpatch.get(new)
                if cur is None:
                    cur = count_hist.get(new, 0)
                cpatch[new] = cur + 1
            level = log2_q.get(edge, log2_eps)
            cur = qpatch.get(level)
            if cur is None:
                cur = q_hist.get(level, 0)
            qpatch[level] = cur + change
        if total <= 0:
            raise ValueError("script has no data-flow edges; RE is undefined")
        s1_base, s2_base = self._base_terms(base_stats)
        terms = [t for c, t in s1_base if c not in cpatch]
        terms.extend(n * _c_log2_c(c) for c, n in cpatch.items() if n)
        s1 = math.fsum(terms)
        terms = [t for level, t in s2_base if level not in qpatch]
        terms.extend(w * level for level, w in qpatch.items() if w)
        s2 = math.fsum(terms)
        return (s1 - s2) / total - math.log2(total)

    @staticmethod
    def _base_terms(
        stats: REStats,
    ) -> Tuple[List[Tuple[int, float]], List[Tuple[float, float]]]:
        """Memoized (bucket, fsum-term) pairs of the base histograms.

        One GetSteps wave scores every proposal against the same base
        stats, so the untouched-bucket terms are computed once.  Safe
        because :class:`REStats` is never mutated after it is built.
        """
        cached = stats.__dict__.get("_terms")
        if cached is None:
            cached = (
                [(c, n * _c_log2_c(c)) for c, n in stats.count_hist.items()],
                [(level, w * level) for level, w in stats.q_hist.items()],
            )
            object.__setattr__(stats, "_terms", cached)
        return cached

    # ----------------------------------------------------------- whole-script
    def score_edge_counts(self, p_counts: Mapping[EdgeKey, int]) -> float:
        if self._q_total <= 0:
            raise ValueError("corpus has no data-flow edges; RE is undefined")
        return self.score_stats(self.stats_from_counts(p_counts))

    def score_dag(self, dag: ScriptDAG) -> float:
        return self.score_edge_counts(dag.edge_counter())

    def score_statements(self, statements: List[Statement]) -> float:
        """Score a working statement list (renumbering is the caller's job)."""
        return self.score_dag(ScriptDAG(list(statements)))

    def score_source(self, source: str, lemmatized: bool = True) -> float:
        from ..lang.parser import parse_script

        return self.score_dag(parse_script(source, lemmatized=lemmatized))
