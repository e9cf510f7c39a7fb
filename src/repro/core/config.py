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
    (:mod:`repro.corpus.cache`).  ``audit`` shadow-runs every layer's
    naive oracle and fails on any divergence.

    The fields are the paper's parameters (``seq`` to
    ``operation_groups``) and what an operator sets (``audit`` to
    ``dialect``: the CLI, the server or the benchmark sets each).

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
    sample_rows:
        Row cap applied when loading D_IN inside constraint checks, at
        least 1; None disables sampling (the CLI's ``--sample-rows 0``).
    operation_groups:
        When set, cluster the corpus's 1-gram atoms into this many
        semantic operation families and only propose each family's most
        frequent representative for 1-gram adds (the Section 6.5
        search-space reduction); None disables grouping.
    audit:
        Debug mode: run each layer's naive oracle beside its fast path
        and raise :class:`repro.core.AuditMismatchError` on any
        divergence (exact comparison), with ``layer`` naming the layer:
        ``scoring`` recounts RE in full beside every delta score;
        ``intent`` recomputes every prepared intent delta through the
        naive, cache-free :meth:`~repro.core.intent.IntentMeasure.delta`;
        ``index`` rebuilds the corpus index from scratch at construction
        and assembly (:meth:`repro.corpus.CorpusIndex.verify`), and on a
        retrieval pool ``score()`` also assembles the working corpus and
        requires its RE to equal the one computed from the neighbours'
        edge counts; ``retrieval`` ranks the whole pool by brute force
        beside every LSH top-k; ``kernel`` shadow-runs the row-at-a-time
        reference beside every minipandas columnar kernel a
        ``standardize()`` touches, and a mismatch inside a sandboxed
        script fails the call instead of the script; ``sandbox`` re-runs
        every incremental sandbox run cold and compares the outcome, error
        line and output table (runs where either side exceeded
        ``exec_timeout_s`` are not compared).  Off by default:
        the oracles cost O(corpus) or O(pool) per check and exist to
        prove the engines exact, not for production.
    exec_timeout_s:
        Wall-clock budget (seconds) for one candidate script inside
        CheckIfExecutes/VerifyConstraints.  A candidate that exceeds it
        fails the execution constraint (it is skipped and counted in the
        executor's ``stats.timeouts``, never fatal).  None — the default —
        disables the watchdog entirely, preserving the bit-identical
        serial path.
    retrieval_k:
        How many pool scripts ``top_k`` retrieval assembles into the
        working corpus when the system is constructed over a
        :class:`repro.corpus.RetrievalIndex` (the retrieve-then-compute
        service path).  The working corpus is a deterministic function
        of (pool, query, k) — ties break on content address — and the
        search over it is bit-identical to a search over the same
        scripts curated by hand.  Ignored when the corpus is given
        directly as scripts, an index, or a vocabulary.
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
    sample_rows: Optional[int] = 500
    operation_groups: Optional[int] = None
    audit: bool = False
    exec_timeout_s: Optional[float] = None
    retrieval_k: int = 20
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
        if self.sample_rows is not None and self.sample_rows < 1:
            raise ValueError(f"sample_rows must be >= 1 when set, got {self.sample_rows}")
        if self.operation_groups is not None and self.operation_groups < 1:
            raise ValueError("operation_groups must be >= 1 when set")
        if self.exec_timeout_s is not None and self.exec_timeout_s <= 0:
            raise ValueError(
                f"exec_timeout_s must be positive when set, got {self.exec_timeout_s}"
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
