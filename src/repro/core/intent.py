"""User-intent measures (Section 2.1): Table Jaccard and Model Performance.

Both compare the dataset emitted by the user's script, ``D_OUT(s_u)``, with
the dataset emitted by a candidate, ``D_OUT(ŝ_u)``.  Each measure exposes
``delta`` (the raw dissimilarity) and ``satisfied`` (the constraint check
against the user's threshold τ).

Besides the naive pairwise measures, this module houses the
content-addressed incremental verification engine: :meth:`IntentMeasure
.prepare` freezes the *original* side of the comparison into a
:class:`PreparedIntent`, after which each candidate check pays for its own
changed content only.  Candidate tables are addressed by per-column content
fingerprints, so a wave of near-duplicate candidates — the shape
``VerifyAllConstraints`` produces — reuses distinct-value sets across
candidates instead of rebuilding the original's value set per check.
The prepared path is exact, not a sketch: every delta it returns is
bit-identical to the naive recomputation (``LSConfig.audit`` checks
exactly that).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from hashlib import sha1
from typing import Any, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .._audit import AuditMismatchError
from .._lru import LRUCache
from ..minipandas import DataFrame, Series, is_missing
from ..minipandas._missing import missing_mask
from ..minipandas.kernels import na_key
from ..ml import DownstreamEvaluationError, evaluate_downstream

__all__ = [
    "ACCURACY_CACHE",
    "ACCURACY_CACHE_LIMIT",
    "IntentMeasure",
    "PreparedIntent",
    "TableJaccardIntent",
    "ModelPerformanceIntent",
    "table_fingerprint",
    "table_jaccard",
    "model_performance_delta",
]


# --------------------------------------------------------------- fingerprints
#: Head of a typed column's content key; no list column's tuple holds it.
_TYPED = object()


def _canonical_array(payload: np.ndarray) -> np.ndarray:
    """A typed payload with every NaN written as the canonical NaN."""
    if payload.dtype == np.float64:
        missing = np.isnan(payload)
        if missing.any():
            return np.where(missing, np.nan, payload)
    return payload


def _column_key(column: Series) -> Hashable:
    """In-process content key of one column: its dtype and canonical-NaN
    bytes when the payload is typed, else its value tuple.

    Equal keys mean equal distinct-value sets.  Bytes compare NaNs by
    value, where tuples would need the same NaN objects; they do tell
    ``0.0`` from ``-0.0`` and an int column from an equal float one, which
    only skips a reuse.
    """
    payload = column._payload
    if isinstance(payload, np.ndarray):
        return (_TYPED, payload.dtype.name, _canonical_array(payload).tobytes())
    return tuple(payload)


def _column_fingerprint(column: Series) -> str:
    """Content address of one column's ordered values.

    A typed payload hashes its dtype and canonical-NaN bytes.  A list
    payload hashes its ``repr``, which round-trips every value type the
    sandbox substrate produces (str/int/float/bool/None/NaN and tuples
    thereof) faithfully and type-discriminatingly.  Either way two columns
    share a fingerprint only when their value sequences are
    indistinguishable.  A spurious *difference* (e.g. ``-0.0`` vs ``0.0``)
    merely skips a reuse opportunity — the set path still compares by
    value equality — so collisions are the only dangerous direction, and
    sha1 makes them cryptographically improbable.
    """
    payload = column._payload
    if isinstance(payload, np.ndarray):
        digest = sha1(payload.dtype.name.encode())
        digest.update(_canonical_array(payload).tobytes())
        return digest.hexdigest()
    return sha1(repr(tuple(payload)).encode("utf-8", "backslashreplace")).hexdigest()


def _combine_fingerprints(
    n_rows: int, named: Sequence[Tuple[Any, str]]
) -> str:
    digest = sha1()
    digest.update(str(n_rows).encode())
    for name, fingerprint in named:
        digest.update(b"\x00")
        digest.update(repr(name).encode("utf-8", "backslashreplace"))
        digest.update(b"\x01")
        digest.update(fingerprint.encode())
    return digest.hexdigest()


def table_fingerprint(frame: DataFrame) -> str:
    """Content address of a whole table, for in-process caches.

    It covers row count, column names, column order, and every cell value
    — everything that determines the naive measures (none of them read
    index labels, and neither does :func:`repro.ml.evaluate_downstream`,
    which is positional).
    """
    return _combine_fingerprints(
        len(frame),
        [(name, _column_fingerprint(frame[name])) for name in frame.columns],
    )


# ------------------------------------------------------------- naive measures
def _cell_set(frame: DataFrame, mode: str) -> Set:
    """Distinct content of *frame*: NA cells read ``"__NA__"``.

    A table holding unhashable cells (a list from ``str.split``) is keyed
    again with every such cell replaced by the repr key of
    :func:`~repro.minipandas.kernels.na_key`; hashable cells and
    ``"__NA__"`` keep their value, and an all-hashable table is built once.
    """
    if mode not in ("values", "cells", "rows"):
        raise ValueError(f"unknown table-jaccard mode: {mode!r}")
    columns = [
        (col, ["__NA__" if is_missing(v) else v for v in frame[col]])
        for col in frame.columns
    ]
    try:
        return _content_set(columns, len(frame), mode)
    except TypeError:
        hashable = [(col, [na_key(v) for v in cells]) for col, cells in columns]
        return _content_set(hashable, len(frame), mode)


def _content_set(
    columns: List[Tuple[str, List[Any]]], n_rows: int, mode: str
) -> Set:
    if mode == "values":
        return {v for _, cells in columns for v in cells}
    if mode == "cells":
        return {(col, v) for col, cells in columns for v in cells}
    return {tuple(cells[pos] for _, cells in columns) for pos in range(n_rows)}


def table_jaccard(a: DataFrame, b: DataFrame, mode: str = "cells") -> float:
    """Jaccard similarity of two tables' distinct content.

    ``mode='values'`` replicates the paper's Example 2.1 (distinct cell
    values); ``'cells'`` compares distinct (column, value) pairs, which
    also notices column renames; ``'rows'`` compares distinct rows.
    Returns 1.0 when both tables are empty.

    Note the deliberately divergent measures: this *function* defaults
    to the strictest cheap comparison (``'cells'``, the user study's
    measure), while :class:`TableJaccardIntent` — the measure wired into
    the search — always measures ``'values'``, the paper's Example 2.1
    semantics, and audits itself against this function in that mode.
    """
    sa, sb = _cell_set(a, mode), _cell_set(b, mode)
    union = sa | sb
    if not union:
        return 1.0
    return len(sa & sb) / len(union)


def model_performance_delta(
    acc_original: float, acc_candidate: float
) -> float:
    """|relative % change| in downstream accuracy (Section 2.1, Δ_M)."""
    if acc_original == 0:
        return 0.0 if acc_candidate == 0 else 100.0
    return abs(acc_original - acc_candidate) / acc_original * 100.0


# ------------------------------------------------------------ prepared engine
class _ColumnContent:
    """One distinct column content: normalized values + lazy distinct set.

    ``normalized()`` replaces missing markers with the same ``"__NA__"``
    sentinel the naive ``_cell_set`` uses (including its collision with a
    genuine ``"__NA__"`` string — bit-identity covers quirks).  Both
    products are built at most once per distinct content and shared across
    every candidate that carries the column, from the column's payload: a
    typed array's missing cells are its NaNs.
    ``hashable()`` re-keys unhashable cells the way ``_cell_set`` falls
    back to, once a set over the plain values raised ``TypeError``.
    """

    __slots__ = ("payload", "_normalized", "_value_set")

    def __init__(self, payload):
        self.payload = payload
        self._normalized: Optional[List[Any]] = None
        self._value_set: Optional[frozenset] = None

    def normalized(self) -> List[Any]:
        if self._normalized is None:
            payload = self.payload
            cells = payload.tolist() if isinstance(payload, np.ndarray) else list(payload)
            for pos in np.flatnonzero(missing_mask(payload)).tolist():
                cells[pos] = "__NA__"
            self._normalized = cells
        return self._normalized

    def hashable(self) -> List[Any]:
        # idempotent: "__NA__" and hashable cells map to themselves
        self._normalized = [na_key(v) for v in self.normalized()]
        return self._normalized

    def value_set(self) -> frozenset:
        if self._value_set is None:
            payload = self.payload
            if isinstance(payload, np.ndarray):
                # one tolist() pass over the present cells; a float
                # column's NaNs, unequal to each other, become one "__NA__"
                missing = missing_mask(payload)
                if missing.any():
                    values = set(payload[~missing].tolist())
                    values.add("__NA__")
                    self._value_set = frozenset(values)
                else:
                    self._value_set = frozenset(payload.tolist())
            else:
                try:
                    self._value_set = frozenset(self.normalized())
                except TypeError:
                    self._value_set = frozenset(self.hashable())
        return self._value_set


class PreparedIntent:
    """The original side of an intent check, frozen once per search.

    ``check(candidate)``/``delta(candidate)`` mirror the naive
    ``IntentMeasure.check(original, candidate)`` but never recompute the
    original's state.  The base class is a correctness fallback for
    measures without an incremental form (it delegates to the naive
    measure); :class:`TableJaccardIntent` and
    :class:`ModelPerformanceIntent` return specialized subclasses from
    :meth:`IntentMeasure.prepare`.

    With ``verify=True`` every prepared delta is cross-checked against
    the naive :meth:`IntentMeasure.delta`, which reads no cache, and any
    float divergence raises :class:`~repro.core.AuditMismatchError` (layer
    ``intent``) — the exact analogue of the scoring engine's audit.

    ``checks`` counts the deltas served and ``short_circuits`` those
    answered from a whole-table content match without comparing content.
    """

    def __init__(
        self, intent: "IntentMeasure", original: DataFrame, verify: bool = False
    ):
        self.intent = intent
        self.original = original
        self._table_fp: Optional[str] = None
        self.verify = verify
        self.checks = 0
        self.short_circuits = 0

    @property
    def table_fp(self) -> str:
        """:func:`table_fingerprint` of the original, computed on first
        use: Δ_M's accuracy memo is its only reader on the hot path."""
        if self._table_fp is None:
            self._table_fp = table_fingerprint(self.original)
        return self._table_fp

    def delta(self, candidate: DataFrame) -> float:
        self.checks += 1
        value = self._prepared_delta(candidate)
        if self.verify:
            reference = self.intent.delta(self.original, candidate)
            if value != reference:
                raise AuditMismatchError(
                    "intent",
                    f"prepared {self.intent.name} delta {value!r} != naive "
                    f"recomputation {reference!r} (original fingerprint "
                    f"{self.table_fp[:12]})"
                )
        return value

    def check(self, candidate: DataFrame) -> Tuple[float, bool]:
        d = self.delta(candidate)
        return d, self.intent.satisfied(d)

    def _prepared_delta(self, candidate: DataFrame) -> float:
        # generic fallback: no incremental form, same answer
        return self.intent.delta(self.original, candidate)


class PreparedTableJaccard(PreparedIntent):
    """Incremental Δ_J: the original's distinct values + a content-addressed
    memo.

    Values collide across columns, so the measure has no per-column
    decomposition; instead each distinct column content's distinct-value
    set is built once and reused across the whole candidate wave, and a
    candidate whose row count and (name, content) pairs equal the
    original's answers 1.0 without touching a set.

    Within one process a column's content key (:func:`_column_key`: dtype
    and canonical-NaN bytes of a typed payload, else the value tuple) is
    its own content address — the memo is keyed by it directly, which
    hashes and compares at C speed and is collision-free by construction
    (the sha1 digests of :func:`table_fingerprint` exist for compact cache
    keys, not for this hot path).  Key equality is a sufficient
    reuse-safety condition: ``==``-equal values are the same element in a
    Python set, so equal keys yield identical normalized sets.
    """

    #: distinct column contents retained across a candidate wave
    COLUMN_MEMO_LIMIT = 1024

    def __init__(
        self, intent: "TableJaccardIntent", original: DataFrame, verify: bool = False
    ):
        super().__init__(intent, original, verify)
        self._memo: LRUCache = LRUCache(self.COLUMN_MEMO_LIMIT)
        columns = _keyed_columns(original)
        #: the original's (name, content key) pairs in column order
        self._original_pairs: List[Tuple[str, Hashable]] = [
            (name, key) for name, key, _ in columns
        ]
        self._original_contents: List[_ColumnContent] = [
            self._memoized(key, payload) for _, key, payload in columns
        ]
        self._original_rows_n = len(original)
        self._value_union: Optional[frozenset] = None

    # ----------------------------------------------------- original-side state
    def _original_value_union(self) -> frozenset:
        if self._value_union is None:
            self._value_union = frozenset().union(
                *(content.value_set() for content in self._original_contents)
            )
        return self._value_union

    # ------------------------------------------------------------- candidates
    def _memoized(self, key: Hashable, payload) -> _ColumnContent:
        """The memo's content for the column keyed *key*, made on first
        sight, so every candidate carrying the column shares its sets.

        A list column holding an unhashable cell cannot key the memo, so
        it gets a fresh content that is not retained.
        """
        try:
            content = self._memo.peek(key)
        except TypeError:
            return _ColumnContent(payload)
        if content is None:
            content = _ColumnContent(payload)
            self._memo[key] = content
        return content

    def _prepared_delta(self, candidate: DataFrame) -> float:
        columns = _keyed_columns(candidate)
        if len(candidate) == self._original_rows_n and [
            (name, key) for name, key, _ in columns
        ] == self._original_pairs:
            self.short_circuits += 1
            return 1.0
        original = self._original_value_union()
        candidate: Set[Any] = set()
        for _, key, payload in columns:
            candidate |= self._memoized(key, payload).value_set()
        common = len(original & candidate)
        union = len(original) + len(candidate) - common
        if not union:
            return 1.0
        return common / union


def _keyed_columns(frame: DataFrame) -> List[Tuple[str, Hashable, Any]]:
    """Each column's ``(name, content key, cells)``, in column order: the
    cells are the read-only typed payload, or the key's value tuple."""
    out = []
    for name in frame.columns:
        column = frame[name]
        key = _column_key(column)
        payload = column._payload
        out.append((name, key, payload if isinstance(payload, np.ndarray) else key))
    return out


#: Capacity of :data:`ACCURACY_CACHE`, in tables.  An entry is a float
#: under a 40-character fingerprint, so a full memo holds about 1 MB.
ACCURACY_CACHE_LIMIT = 4096

#: ``(table fingerprint, target, task) -> accuracy``, shared by every
#: prepared Δ_M check in the process.  The key is exact:
#: ``evaluate_downstream`` is a deterministic, positional function of
#: the target, the task and the content :func:`table_fingerprint`
#: hashes, and its only randomness comes from generators it seeds itself,
#: so skipping a training shifts no other random stream.  τ is not in the
#: key, since it does not affect accuracy.  Only successes are stored: a
#: table the model cannot use is evaluated, and raises, on every check.
#: The naive measures (``accuracy``, ``delta``, ``check``) never read it,
#: so the intent audit (``LSConfig.audit``) and every oracle train afresh.
ACCURACY_CACHE = LRUCache(ACCURACY_CACHE_LIMIT, thread_safe=True)


class PreparedModelPerformance(PreparedIntent):
    """Incremental Δ_M: each distinct table trained at most once.

    The naive ``delta`` re-trains the downstream model on the (unchanged)
    original output for every candidate.  Here every accuracy, the
    original's included, comes from :data:`ACCURACY_CACHE` when the
    process has scored that table before, keyed by the fingerprints this
    class computes anyway: candidates of one search whose extra or missing
    statements do not change the output, and tables an earlier search
    scored, are not trained again.  A candidate whose content fingerprint
    equals the original's short-circuits to the exact naive result —
    ``evaluate_downstream`` is a deterministic, positional function of
    table content, so identical content implies identical accuracy.
    """

    def _accuracy(self, frame: DataFrame, fingerprint: str) -> float:
        key = (fingerprint, self.intent.target, self.intent.task)
        acc = ACCURACY_CACHE.get(key)
        if acc is None:
            acc = self.intent.accuracy(frame)  # stored only on success
            ACCURACY_CACHE[key] = acc
        return acc

    def _prepared_delta(self, candidate: DataFrame) -> float:
        # evaluated (or raised) first, exactly as the naive path orders it
        acc_orig = self._accuracy(self.original, self.table_fp)
        fingerprint = table_fingerprint(candidate)
        if fingerprint == self.table_fp:
            self.short_circuits += 1
            return model_performance_delta(acc_orig, acc_orig)
        try:
            acc_cand = self._accuracy(candidate, fingerprint)
        except DownstreamEvaluationError:
            return 100.0
        return model_performance_delta(acc_orig, acc_cand)


# ------------------------------------------------------------------ measures
class IntentMeasure(ABC):
    """Interface every user-intent measure implements."""

    #: human-readable identifier used in reports
    name: str = "intent"

    @abstractmethod
    def delta(self, original: DataFrame, candidate: DataFrame) -> float:
        """Raw dissimilarity between the two script outputs."""

    @abstractmethod
    def satisfied(self, delta: float) -> bool:
        """Does *delta* respect the user's threshold τ?"""

    def check(self, original: DataFrame, candidate: DataFrame) -> Tuple[float, bool]:
        d = self.delta(original, candidate)
        return d, self.satisfied(d)

    def prepare(self, original: DataFrame, verify: bool = False) -> PreparedIntent:
        """Freeze *original* into the verification state of one search."""
        return PreparedIntent(self, original, verify)


class TableJaccardIntent(IntentMeasure):
    """Δ_J: candidate output must stay Jaccard-similar to the original.

    ``delta`` is the Jaccard *similarity* (1.0 = identical); the constraint
    is satisfied when similarity ≥ τ_J (paper default 0.9).  It compares
    distinct cell values, the paper's Example 2.1 — intentionally *unlike*
    the lower-level :func:`table_jaccard` helper, whose default is the
    stricter ``'cells'``.
    """

    name = "table_jaccard"

    def __init__(self, tau: float = 0.9):
        if not 0.0 <= tau <= 1.0:
            raise ValueError(f"tau_J must be in [0, 1], got {tau}")
        self.tau = tau

    def delta(self, original: DataFrame, candidate: DataFrame) -> float:
        return table_jaccard(original, candidate, mode="values")

    def satisfied(self, delta: float) -> bool:
        return delta >= self.tau

    def prepare(self, original: DataFrame, verify: bool = False) -> PreparedIntent:
        return PreparedTableJaccard(self, original, verify)


class ModelPerformanceIntent(IntentMeasure):
    """Δ_M: downstream model accuracy may shift at most τ_M percent.

    A candidate whose output can no longer support the downstream task at
    all (e.g. it dropped the target column) fails the constraint outright.
    ``delta`` trains the model on both tables on every call, so it is the
    ground truth for the prepared check (:meth:`prepare`) and its audit.
    """

    name = "model_performance"

    def __init__(
        self,
        target: str,
        tau: float = 1.0,
        task: Optional[str] = None,
    ):
        if tau < 0:
            raise ValueError(f"tau_M must be non-negative, got {tau}")
        self.target = target
        self.tau = tau
        self.task = task

    def accuracy(self, frame: DataFrame) -> float:
        return evaluate_downstream(frame, self.target, task=self.task).accuracy

    def delta(self, original: DataFrame, candidate: DataFrame) -> float:
        acc_orig = self.accuracy(original)
        try:
            acc_cand = self.accuracy(candidate)
        except DownstreamEvaluationError:
            return 100.0
        return model_performance_delta(acc_orig, acc_cand)

    def satisfied(self, delta: float) -> bool:
        return delta <= self.tau

    def prepare(self, original: DataFrame, verify: bool = False) -> PreparedIntent:
        return PreparedModelPerformance(self, original, verify)
