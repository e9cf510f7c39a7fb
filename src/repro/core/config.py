"""Search-framework configuration and the paper's Table 2 defaults."""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from typing import Any, Optional

__all__ = ["LSConfig", "recommend_parameters"]

#: Table 2 thresholds: a corpus is "large" above 10 scripts and "diverse"
#: above 300 unique edges.
LARGE_CORPUS_SCRIPTS = 10
DIVERSE_CORPUS_EDGES = 300


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    """A finite int or float, not a bool (exact for ints of any size)."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


#: An annotation's base type -> (its check, what the error names).
_TYPE_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a finite number"),
    "bool": (lambda value: isinstance(value, bool), "a bool"),
    "str": (lambda value: isinstance(value, str), "a string"),
}


@dataclass
class LSConfig:
    """Tunable parameters of the LucidScript search (Section 5.2).

    Each layer of the search has one production path: constraint checks
    resume from statement prefixes on a
    :class:`~repro.sandbox.IncrementalExecutor`, GetSteps scores each
    proposal in O(Δ) off its parent's edge state
    (:meth:`~repro.core.entropy.RelativeEntropyScorer.score_delta`),
    intent checks run on a :class:`~repro.core.intent.PreparedIntent`
    (O(changed columns) per candidate), and raw corpus scripts are
    curated through the process-wide warm cache
    (:mod:`repro.corpus.cache`).  Each ``verify_*`` audit shadow-runs
    its layer's naive oracle and fails on any divergence.

    Attributes
    ----------
    seq:
        Maximum transformation-sequence length (the stopping criterion).
    beam_size:
        K — number of in-progress candidate scripts retained.
    diversity:
        Cluster candidate transformations (Algorithm 3) so beams explore
        different parts of the search space.
    diversity_clusters:
        M — number of k-means clusters; defaults to ``beam_size``.
    early_check:
        α — verify the execution constraint after every transformation
        (True) or only once sequences are complete (False).
    max_step_candidates:
        Cap on ranked next-step transformations returned by GetSteps().
    score_band:
        RE scores within this tolerance compare equal during ranking and
        beam eviction; ties break toward earlier script positions (lower
        frontiers), which preserves the monotone search's future options.
    sample_rows:
        Row cap applied when loading D_IN inside constraint checks, at
        least 1; None disables sampling (the CLI's ``--sample-rows 0``).
    operation_groups:
        When set, cluster the corpus's 1-gram atoms into this many
        semantic operation families and only propose each family's most
        frequent representative for 1-gram adds (the Section 6.5
        search-space reduction); None disables grouping.
    random_state:
        Seed for the diversity clustering and any sampling decisions.
    verify_scoring:
        Debug mode: run the full recount alongside every delta score and
        raise :class:`repro.core.beam.ScoringMismatchError` on any
        divergence (exact comparison).  Also times both paths, surfacing
        the measured ratio as ``SearchStats.get_steps_speedup``.  Off by
        default — it exists to audit the delta engine, not for
        production.
    verify_intent:
        Debug mode: recompute every prepared intent delta through the
        naive cache-free :meth:`~repro.core.intent.IntentMeasure.check`
        alongside and raise
        :class:`repro.core.intent.IntentMismatchError` on any float
        divergence (exact comparison).  Also times both paths, surfacing
        the measured ratio as ``SearchStats.intent_speedup``.  Off by
        default — it exists to audit the intent engine, not for
        production.
    exec_timeout_s:
        Wall-clock budget (seconds) for one candidate script inside
        CheckIfExecutes/VerifyConstraints.  A candidate that exceeds it
        fails the execution constraint (it is skipped and counted in
        ``SearchStats.breakdown()``, never fatal).  None — the default —
        disables the watchdog entirely, preserving the bit-identical
        serial path.
    statement_timeout_s:
        Wall-clock budget for each individual statement of a candidate;
        tighter than ``exec_timeout_s`` when a single statement is the
        pathology.  None disables it.
    verify_index:
        Debug mode: audit the corpus index backing this search against
        a from-scratch offline-phase rebuild at construction time and
        raise :class:`repro.corpus.IndexMismatchError` on any
        divergence (exact comparison, including successor tie order and
        relative-position float means).  Off by default — it exists to
        audit the corpus engine, not for production.
    retrieval_k:
        How many pool scripts ``top_k`` retrieval assembles into the
        working corpus when the system is constructed over a
        :class:`repro.corpus.RetrievalIndex` (the retrieve-then-compute
        service path).  The working corpus is a deterministic function
        of (pool, query, k) — ties break on content address — and the
        search over it is bit-identical to a search over the same
        scripts curated by hand.  Ignored when the corpus is given
        directly as scripts, an index, or a vocabulary.
    verify_retrieval:
        Debug mode: cross-check every LSH top-k retrieval against
        brute-force signature similarity over the whole pool and raise
        :class:`repro.corpus.RetrievalMismatchError` on any divergence
        (exact comparison, including scores and tie order).  O(pool)
        per query — it exists to audit the retrieval engine, not for
        production.
    verify_kernels:
        Debug mode: shadow-run the naive row-at-a-time reference
        implementation alongside every minipandas columnar kernel
        (``fillna``/``dropna``/``duplicated``/``take``/``get_dummies``/
        groupby aggregation) touched during ``standardize()`` and raise
        :class:`repro.minipandas.KernelMismatchError` on any divergence
        (bit-exact comparison, including missingness flavour and cell
        types).  Off by default — it exists to audit the kernel engine,
        not for production.
    dialect:
        Name of the registered :class:`~repro.dialects.ApiDialect` this
        search standardizes against — the recognized call surface,
        sandbox shim, and output convention.  ``"pandas"`` (the default)
        is bit-identical to the pre-dialect pipeline; corpus and input
        scripts must all belong to this dialect.  Unknown names raise
        :class:`~repro.dialects.UnknownDialectError` listing what is
        registered.
    """

    seq: int = 16
    beam_size: int = 3
    diversity: bool = True
    diversity_clusters: Optional[int] = None
    early_check: bool = True
    max_step_candidates: int = 48
    score_band: float = 0.02
    sample_rows: Optional[int] = 500
    operation_groups: Optional[int] = None
    random_state: int = 0
    verify_scoring: bool = False
    verify_intent: bool = False
    exec_timeout_s: Optional[float] = None
    statement_timeout_s: Optional[float] = None
    verify_index: bool = False
    retrieval_k: int = 20
    verify_retrieval: bool = False
    verify_kernels: bool = False
    dialect: str = "pandas"

    def __post_init__(self):
        from ..dialects import get_dialect

        for name, optional, check, expected in _FIELD_CHECKS:
            value = getattr(self, name)
            if not (check(value) or (optional and value is None)):
                raise TypeError(f"{name} must be {expected}, got {value!r}")
        get_dialect(self.dialect)  # unknown names fail fast, listing options
        if self.seq < 1:
            raise ValueError(f"seq must be >= 1, got {self.seq}")
        if self.beam_size < 1:
            raise ValueError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.diversity_clusters is not None and self.diversity_clusters < 1:
            raise ValueError("diversity_clusters must be >= 1 when set")
        if self.max_step_candidates < 1:
            raise ValueError("max_step_candidates must be >= 1")
        if self.score_band < 0:
            raise ValueError("score_band must be non-negative")
        if self.sample_rows is not None and self.sample_rows < 1:
            raise ValueError(f"sample_rows must be >= 1 when set, got {self.sample_rows}")
        if self.operation_groups is not None and self.operation_groups < 1:
            raise ValueError("operation_groups must be >= 1 when set")
        if self.exec_timeout_s is not None and self.exec_timeout_s <= 0:
            raise ValueError(
                f"exec_timeout_s must be positive when set, got {self.exec_timeout_s}"
            )
        if self.statement_timeout_s is not None and self.statement_timeout_s <= 0:
            raise ValueError(
                "statement_timeout_s must be positive when set, "
                f"got {self.statement_timeout_s}"
            )
        if self.retrieval_k < 1:
            raise ValueError(f"retrieval_k must be >= 1, got {self.retrieval_k}")

    @property
    def clusters(self) -> int:
        return self.diversity_clusters or self.beam_size


#: (field, takes None, check, expected) for every LSConfig field, read
#: off its annotation (``int``, ``Optional[float]``, ...).
_FIELD_CHECKS = tuple(
    (spec.name, spec.type.startswith("Optional["))
    + _TYPE_CHECKS[spec.type.removeprefix("Optional[").removesuffix("]")]
    for spec in fields(LSConfig)
)


def recommend_parameters(n_scripts: int, uniq_edges: int) -> LSConfig:
    """Reproduce Table 2: default (seq, K) from corpus size and diversity.

    ============  ==================  ====  ===
    corpus size   edge diversity      seq   K
    ============  ==================  ====  ===
    > 10 scripts  > 300 uniq. edges    16    3
    > 10 scripts  ≤ 300 uniq. edges    16    1
    ≤ 10 scripts  > 300 uniq. edges     8    3
    ≤ 10 scripts  ≤ 300 uniq. edges     8    1
    ============  ==================  ====  ===
    """
    if n_scripts < 0 or uniq_edges < 0:
        raise ValueError("corpus statistics must be non-negative")
    seq = 16 if n_scripts > LARGE_CORPUS_SCRIPTS else 8
    beam = 3 if uniq_edges > DIVERSE_CORPUS_EDGES else 1
    return LSConfig(seq=seq, beam_size=beam)
