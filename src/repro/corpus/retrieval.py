"""Sub-linear corpus retrieval: LSH top-k over script signatures.

The paper assumes a curated per-dataset corpus; at service scale there
is instead one giant pool of scripts across thousands of datasets, and
assembling a working corpus by touching every candidate is O(pool) per
request.  This module is the retrieve-then-compute half of that
architecture: a :class:`RetrievalIndex` holds only the cheap
:class:`~repro.corpus.signatures.ScriptSignature` of each pool script —
LSH band buckets over the minhash plus schema-token postings — and
answers ``top_k(query, k)`` by scoring just the scripts sharing a band
or a schema token with the query, then hands the winners to the exact
engine as a :class:`~repro.corpus.index.CorpusIndex` built through the
ordinary record-delta path.  Downstream stays bit-identical: the
assembled corpus is a real index over real records, and a search over
it equals a search over the same scripts curated by hand.

Exactness, not approximation: :func:`signature_similarity` scores a
pair 0 unless the two signatures share a full LSH band or a schema
token, which is precisely the candidate-generation event.  The
candidate set therefore *equals* the positive-similarity set, and
``top_k`` equals brute force over the whole pool (ties broken by
content address, so results are deterministic across runs and
platforms).  ``top_k`` scores all candidates at once from a column
store of the pool's signatures, with the same IEEE operations in the
same order as the scalar :func:`signature_similarity`, which stays as
the oracle of :meth:`RetrievalIndex.brute_force_top_k`.
:meth:`RetrievalIndex.top_k` with ``verify=True`` (what
``LSConfig.audit`` turns on) audits the equality per query, raising
:class:`~repro.core.AuditMismatchError` (layer ``retrieval``) on any
divergence.

Membership rides :class:`~repro.corpus.index.MembershipIndex`: add /
remove / directory ``refresh`` are pure deltas (bucket edits on the
refcount edges), so the pool persists as the same snapshot as the corpus
index (:func:`repro.corpus.persistence.save_index`), and
:meth:`RetrievalIndex.from_index` makes a pool of a loaded one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .._audit import AuditMismatchError
from ..lang.errors import ScriptError
from .index import CorpusIndex, MembershipIndex
from .signatures import (
    LSH_ROWS,
    NUM_PERM,
    N_PHASES,
    ScriptSignature,
    band_keys,
    phase_norm,
    signature_similarity,
    table_signature,
)
from .store import ScriptRecord, ScriptStore

__all__ = [
    "RetrievalCounters",
    "RetrievalIndex",
    "RetrievalMismatchError",
    "RetrievedScript",
]

#: The historical name of the retrieval audit's error.
RetrievalMismatchError = AuditMismatchError


@dataclass(frozen=True)
class RetrievedScript:
    """One top-k hit: a pool script and its similarity to the query."""

    content_hash: str
    score: float
    record: ScriptRecord


@dataclass
class RetrievalCounters:
    """Observable work done by one :class:`RetrievalIndex`."""

    queries: int = 0
    candidates: int = 0  #: signatures actually scored across all queries
    fallbacks: int = 0  #: full scans taken because candidates < k

    def snapshot(self) -> Tuple[int, int, int]:
        return (self.queries, self.candidates, self.fallbacks)


#: Rows allocated when the column store first grows; it doubles after.
_INITIAL_ROWS = 64


def _grown(column: np.ndarray, capacity: int) -> np.ndarray:
    """*column* with room for *capacity* rows, its rows copied."""
    grown = np.empty((capacity,) + column.shape[1:], dtype=column.dtype)
    grown[: len(column)] = column
    return grown


def _unpost(postings: Dict, keys: Iterable, row: int) -> None:
    """Unhook *row* from the postings of *keys*, dropping emptied ones."""
    for key in keys:
        posting = postings.get(key)
        if posting is not None:
            posting.discard(row)
            if not posting:
                del postings[key]


#: Accepted query forms: a raw script text, a table (anything with a
#: ``columns`` attribute, e.g. a minipandas DataFrame), or a prebuilt
#: signature.
Query = Union[str, ScriptSignature, object]


class RetrievalIndex(MembershipIndex):
    """LSH-banded top-k similarity search over a pool of scripts.

    The derived state is one row per *unique* script in a column store —
    its minhash in an ``int64`` matrix, its vocabulary and schema sizes,
    its phase histogram and that histogram's norm — plus three inverted
    structures over rows: band buckets keyed by ``(band, row values…)``,
    schema-token postings and vocabulary postings.  A band bucket is a
    tuple of rows, not a set: most hold one row (14,931 of 18,601 on a
    900-script pool), and a one-row tuple takes 48 bytes where a set
    takes 216.  Postings, which often hold hundreds, stay sets.  All of
    it is maintained on the refcount edges of the shared membership
    machinery: duplicates of a script in the pool change nothing
    (retrieval is about *which* scripts exist, not how often), and
    removal frees a row for reuse only when the script's last member
    leaves.
    """

    def __init__(
        self, store: Optional[ScriptStore] = None, dialect: Optional[str] = None
    ):
        super().__init__(store=store, dialect=dialect)
        self._rows: Dict[str, int] = {}  #: content hash -> row
        self._row_hashes: List[Optional[str]] = []  #: row -> content hash
        self._free_rows: List[int] = []
        self._minhash = np.empty((0, NUM_PERM), dtype=np.int64)
        self._schema_sizes = np.empty(0, dtype=np.int64)
        self._vocab_sizes = np.empty(0, dtype=np.int64)
        self._groups = np.empty((0, N_PHASES), dtype=np.float64)
        self._norms = np.empty(0, dtype=np.float64)
        self._bands: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        self._schema_posts: Dict[str, Set[int]] = {}
        self._vocab_posts: Dict[str, Set[int]] = {}
        self.counters = RetrievalCounters()

    @classmethod
    def from_index(
        cls, index: MembershipIndex, store: Optional[ScriptStore] = None
    ) -> "RetrievalIndex":
        """A pool of *index*'s members, in member order, admitted from
        their records, so nothing is parsed: how a loaded snapshot
        becomes a pool.  ``ValueError`` if *store* is of another dialect."""
        pool = cls(store=store, dialect=None if store is not None else index.dialect)
        for content_hash in index.content_hashes():
            pool.add_record(index._records[content_hash])
        return pool

    # ------------------------------------------------------------------- hooks
    def _allocate_row(self) -> int:
        if self._free_rows:
            return self._free_rows.pop()
        row = len(self._row_hashes)
        if row == len(self._norms):
            capacity = max(_INITIAL_ROWS, 2 * row)
            self._minhash = _grown(self._minhash, capacity)
            self._schema_sizes = _grown(self._schema_sizes, capacity)
            self._vocab_sizes = _grown(self._vocab_sizes, capacity)
            self._groups = _grown(self._groups, capacity)
            self._norms = _grown(self._norms, capacity)
        self._row_hashes.append(None)
        return row

    def _apply(self, record: ScriptRecord, script_id: int) -> None:
        if self._refcounts[record.content_hash] != 1:
            return  # duplicate member of an already-bucketed script
        signature = record.signature
        row = self._allocate_row()
        self._rows[record.content_hash] = row
        self._row_hashes[row] = record.content_hash
        # an empty minhash (no statements) agrees with no valid value
        self._minhash[row] = signature.minhash or -1
        self._schema_sizes[row] = len(signature.schema)
        self._vocab_sizes[row] = len(signature.vocab)
        self._groups[row] = signature.groups
        self._norms[row] = phase_norm(signature.groups)
        bands = self._bands
        for key in band_keys(signature.minhash):
            bands[key] = bands.get(key, ()) + (row,)
        for token in signature.schema:
            self._schema_posts.setdefault(token, set()).add(row)
        for token in signature.vocab:
            self._vocab_posts.setdefault(token, set()).add(row)

    def _retract(self, record: ScriptRecord, script_id: int) -> None:
        if record.content_hash in self._refcounts:
            return  # other members still reference this script
        row = self._rows.pop(record.content_hash)
        self._row_hashes[row] = None
        self._free_rows.append(row)
        signature = record.signature
        bands = self._bands
        for key in band_keys(signature.minhash):
            bucket = tuple(member for member in bands[key] if member != row)
            if bucket:
                bands[key] = bucket
            else:
                del bands[key]
        _unpost(self._schema_posts, signature.schema, row)
        _unpost(self._vocab_posts, signature.vocab, row)

    # ----------------------------------------------------------------- queries
    def query_signature(self, query: Query) -> ScriptSignature:
        """Resolve any accepted query form to a :class:`ScriptSignature`.

        Raw script texts go through the store (so repeated queries parse
        once and the signature is the content-addressed one); tables
        reduce to their column names via :func:`table_signature`.
        """
        if isinstance(query, ScriptSignature):
            return query
        if isinstance(query, str):
            record = self.store.get_or_parse(query)
            if record is None:
                raise ScriptError("retrieval query script does not parse")
            return record.signature
        columns = getattr(query, "columns", None)
        if columns is not None:
            return table_signature(columns)
        raise TypeError(
                f"unsupported retrieval query type: {type(query).__name__} "
                "(expected script text, table, or ScriptSignature)"
        )

    def _scored(self, signature: ScriptSignature, hashes) -> List[RetrievedScript]:
        """Reference ranking of *hashes*: scalar similarity, full sort."""
        hits = [
            RetrievedScript(
                content_hash=content_hash,
                score=signature_similarity(
                    signature, self._records[content_hash].signature
                ),
                record=self._records[content_hash],
            )
            for content_hash in hashes
        ]
        hits.sort(key=lambda hit: (-hit.score, hit.content_hash))
        return hits

    def _jaccard(
        self,
        tokens: frozenset,
        postings: Dict[str, Set[int]],
        sizes: np.ndarray,
        rows: np.ndarray,
    ) -> np.ndarray:
        """Jaccard of *tokens* with each row's token set, 0.0 without overlap.

        The intersections are integer counts — one bincount over the rows
        posted under the query's tokens — so each quotient is the same
        correctly rounded division the scalar ``_jaccard`` performs.
        """
        posted = [postings[token] for token in tokens if token in postings]
        members = np.fromiter(
            chain.from_iterable(posted), dtype=np.intp, count=sum(map(len, posted))
        )
        inter = np.bincount(members, minlength=len(self._row_hashes))[rows]
        union = len(tokens) + sizes[rows] - inter
        return np.divide(inter, union, out=np.zeros(len(rows)), where=inter > 0)

    def _similarities(self, signature: ScriptSignature, rows: np.ndarray) -> np.ndarray:
        """:func:`signature_similarity` of *signature* with every row, bit for bit.

        Each term is the scalar one's IEEE operations in the scalar
        order, elementwise: agreement counts over NUM_PERM, integer
        Jaccard quotients, the cosine dot summed phase by phase left to
        right and divided only where it is nonzero, then the weighted
        sum and the retrievability gate.
        """
        n = len(rows)
        if signature.minhash:
            agree = self._minhash[rows] == np.array(signature.minhash, dtype=np.int64)
            agreement = agree.sum(axis=1) / NUM_PERM
            # band b holds positions b*LSH_ROWS + r; it collides when all agree
            collide = np.logical_and.reduce(
                [agree[:, r::LSH_ROWS] for r in range(LSH_ROWS)]
            ).any(axis=1)
        else:
            agreement = np.zeros(n)
            collide = np.zeros(n, dtype=bool)
        vocab = self._jaccard(signature.vocab, self._vocab_posts, self._vocab_sizes, rows)
        schema = self._jaccard(
            signature.schema, self._schema_posts, self._schema_sizes, rows
        )
        groups = self._groups[rows]
        dot = np.zeros(n)
        for column, value in enumerate(signature.groups):
            dot = dot + value * groups[:, column]
        cosine = np.divide(
            dot,
            phase_norm(signature.groups) * self._norms[rows],
            out=np.zeros(n),
            where=dot != 0.0,
        )
        score = 0.55 * agreement + 0.20 * vocab + 0.15 * schema + 0.10 * cosine
        return np.where((schema != 0.0) | collide, score, 0.0)

    def _ranked(self, scores: np.ndarray, rows: np.ndarray, k: int) -> List[RetrievedScript]:
        """The *k* best rows by (score descending, content hash) as hits.

        A partition finds the k-th best score; only rows scoring at
        least that — the winners plus any tie at the cut — are sorted.
        """
        if len(rows) > k:
            cut = len(rows) - k
            keep = scores >= np.partition(scores, cut)[cut]
            scores, rows = scores[keep], rows[keep]
        ranked = sorted(
            zip(scores.tolist(), [self._row_hashes[row] for row in rows.tolist()]),
            key=lambda pair: (-pair[0], pair[1]),
        )
        return [
            RetrievedScript(
                content_hash=content_hash,
                score=score,
                record=self._records[content_hash],
            )
            for score, content_hash in ranked[:k]
        ]

    def top_k(self, query: Query, k: int, verify: bool = False) -> List[RetrievedScript]:
        """The *k* pool scripts most similar to *query*, best first.

        Candidates are the union of the query's LSH band buckets and
        schema postings; because :func:`signature_similarity` is gated
        on exactly those two events, this set contains every script
        with positive similarity and the result equals
        :meth:`brute_force_top_k`.  When fewer than *k* candidates
        surface, the scan falls back to the whole pool (counted in
        ``counters.fallbacks``) so the result is still k-deep, padded
        with zero-similarity scripts in content-address order.  The
        candidates are scored together from the column store
        (:meth:`_similarities`), equal bit for bit to the scalar
        :func:`signature_similarity`.

        With ``verify=True`` (the retrieval audit) the brute-force
        ranking is computed alongside and any divergence raises
        :class:`~repro.core.AuditMismatchError` (layer ``retrieval``).
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        signature = self.query_signature(query)
        self.counters.queries += 1
        candidates: Set[int] = set()
        for key in band_keys(signature.minhash):
            candidates.update(self._bands.get(key, ()))
        for token in signature.schema:
            candidates.update(self._schema_posts.get(token, ()))
        if len(candidates) < min(k, len(self._rows)):
            candidates = self._rows.values()
            self.counters.fallbacks += 1
        self.counters.candidates += len(candidates)
        rows = np.fromiter(candidates, dtype=np.intp, count=len(candidates))
        hits = self._ranked(self._similarities(signature, rows), rows, k)
        if verify:
            self._audit(signature, k, hits)
        return hits

    def brute_force_top_k(self, query: Query, k: int) -> List[RetrievedScript]:
        """Reference ranking: score every pool script, no index used."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        signature = self.query_signature(query)
        return self._scored(signature, self._rows)[:k]

    def _audit(
        self, signature: ScriptSignature, k: int, hits: Sequence[RetrievedScript]
    ) -> None:
        expected = self.brute_force_top_k(signature, k)
        got = [(hit.content_hash, hit.score) for hit in hits]
        want = [(hit.content_hash, hit.score) for hit in expected]
        if got != want:
            missed = [pair for pair in want if pair not in got]
            raise AuditMismatchError(
                "retrieval",
                "LSH top-k diverged from brute-force "
                f"signature similarity; missed {missed[:3]!r} "
                f"(k={k}, pool={len(self._rows)})"
            )

    # ---------------------------------------------------------------- assembly
    def assemble(
        self,
        query: Query,
        k: int,
        store: Optional[ScriptStore] = None,
        verify: bool = False,
    ) -> CorpusIndex:
        """Retrieve top-*k* and build the working :class:`CorpusIndex`.

        The winners are admitted through the normal record-delta path in
        retrieval order (score-descending, content-address tie-break),
        so the assembled corpus — and everything downstream of its
        vocabulary — is a deterministic function of (pool, query, k).
        """
        return self.assemble_from_hits(self.top_k(query, k, verify=verify), store=store)

    def assemble_from_hits(
        self, hits: Sequence[RetrievedScript], store: Optional[ScriptStore] = None
    ) -> CorpusIndex:
        """A working corpus over already-retrieved hits (no reparse)."""
        if not hits:
            raise ScriptError("retrieval returned no scripts to assemble a corpus from")
        corpus = CorpusIndex(store=store if store is not None else self.store)
        for hit in hits:
            corpus.add_record(hit.record)
        return corpus

    # ------------------------------------------------------------------- stats
    def stats(self) -> Dict[str, object]:
        return {
            "dialect": self.dialect,
            "n_scripts": len(self._members),
            "n_unique_scripts": len(self._rows),
            "n_band_buckets": len(self._bands),
            "n_schema_tokens": len(self._schema_posts),
            "queries": self.counters.queries,
            "candidates": self.counters.candidates,
            "fallbacks": self.counters.fallbacks,
        }
