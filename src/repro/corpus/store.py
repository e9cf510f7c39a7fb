"""Content-addressed script storage (the corpus subsystem's parse cache).

Corpus scripts are addressed by the sha1 of their *lemmatized* source:
two raw scripts that lemmatize to the same canonical text are the same
corpus script, parsed once.  Each stored record carries everything the
:class:`~repro.corpus.index.CorpusIndex` needs to add or remove the
script from the aggregate sufficient statistics as a pure count delta —
per-script edge/atom counters, inter-statement successor pairs in DAG
order, 1-gram template candidates, and per-signature relative-position
lists — plus the retrieval :class:`~repro.corpus.signatures
.ScriptSignature` (minhash, vocabulary fingerprint, schema tokens),
computed once here so membership changes and similarity search never
touch the AST again.

A store may be unbounded (the per-index default) or capped: the
process-wide shared store (:func:`repro.corpus.cache.shared_store`)
holds the records of *every* corpus any request touched, so it is
bounded by an :class:`~repro._lru.LRUCache` — long-lived serving
processes stay at a configurable ceiling while indexes keep their own
strong references to the records they admitted (an evicted record is
simply reparsed on next use).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from hashlib import sha1
from typing import Dict, List, Optional, Tuple, Union

from .._lru import LRUCache
from ..dialects import get_dialect
from ..lang.errors import ScriptError
from ..lang.parser import ScriptDAG, parse_script
from .signatures import ScriptSignature, signature_from_source

__all__ = ["ScriptRecord", "ScriptStore", "StoreCounters", "content_address"]


def content_address(lemmatized_source: str) -> str:
    """sha1 hex digest of a lemmatized script — the corpus content key."""
    return sha1(lemmatized_source.encode()).hexdigest()


#: Per-1-gram template candidates inside one script, as
#: ``(first_df_source, first_any_source)``: the first enclosing statement
#: whose source starts with ``"df = "`` (None when the script has none
#: for this signature) and the first enclosing statement overall.  These
#: two slots are sufficient to replay :class:`CorpusVocabulary`'s
#: template-preference rule across any corpus ordering.
TemplateSlot = Tuple[Optional[str], str]


@dataclass(frozen=True)
class ScriptRecord:
    """One unique corpus script and its precomputed count contributions."""

    content_hash: str
    source: str  #: lemmatized source (the canonical text that was hashed)
    n_statements: int
    edge_counts: Counter
    onegram_counts: Counter
    ngram_counts: Counter
    #: inter-statement successor targets per source n-gram, preserving
    #: the script's ``inter_edges()`` order (drives Counter insertion
    #: order, hence ``most_common()`` tie order, in the rebuilt index)
    successors_by_source: Dict[str, List[str]]
    #: 1-gram signature -> template candidates (see TemplateSlot)
    template_slots: Dict[str, TemplateSlot]
    #: n-gram signature -> relative positions, in statement order
    position_lists: Dict[str, List[float]]
    #: retrieval signature (minhash / vocab / schema features), a pure
    #: function of (content_hash, source, onegram_counts)
    signature: ScriptSignature
    #: API dialect the script was lemmatized/parsed under; indexes refuse
    #: to mix records of different dialects (trailing field with a default
    #: so pre-dialect snapshots and callers keep working)
    dialect: str = "pandas"

    @classmethod
    def from_dag(
        cls, content_hash: str, source: str, dag: ScriptDAG, dialect: str = "pandas"
    ) -> "ScriptRecord":
        successors: Dict[str, List[str]] = {}
        for edge in dag.inter_edges():
            successors.setdefault(edge.source, []).append(edge.target)
        slots: Dict[str, TemplateSlot] = {}
        positions: Dict[str, List[float]] = {}
        n = max(len(dag) - 1, 1)
        for stmt in dag.statements:
            positions.setdefault(stmt.ngram.signature, []).append(stmt.index / n)
            is_df = stmt.source.startswith("df = ")
            for atom in stmt.onegrams:
                first_df, first_any = slots.get(atom.signature, (None, None))
                if first_any is None:
                    first_any = stmt.source
                if first_df is None and is_df:
                    first_df = stmt.source
                slots[atom.signature] = (first_df, first_any)
        onegram_counts = dag.onegram_counter()
        return cls(
            content_hash=content_hash,
            source=source,
            n_statements=len(dag),
            edge_counts=dag.edge_counter(),
            onegram_counts=onegram_counts,
            ngram_counts=dag.ngram_counter(),
            successors_by_source=successors,
            template_slots=slots,
            position_lists=positions,
            signature=signature_from_source(content_hash, source, onegram_counts),
            dialect=dialect,
        )


@dataclass
class StoreCounters:
    """Observable cache behaviour of one :class:`ScriptStore`."""

    hits: int = 0  #: record served without building a new one
    lemma_hits: int = 0  #: raw bytes seen before — parse skipped too
    parses: int = 0  #: records built from a parse (cache misses)
    failures: int = 0  #: scripts rejected by the parser
    evictions: int = 0  #: records dropped by a bounded store's LRU cap

    def snapshot(self) -> Tuple[int, int, int, int, int]:
        return (self.hits, self.lemma_hits, self.parses, self.failures, self.evictions)


class ScriptStore:
    """Content-addressed records, deduplicating identical corpus scripts.

    The store may be private to one index or shared process-wide (see
    :mod:`repro.corpus.cache`): records are immutable, so sharing is
    safe, and a leave-one-out sweep or repeated ``LucidScript``
    constructions over overlapping corpora parse each unique script once.
    A raw-text memo additionally skips lemmatization when the exact same
    bytes are offered again.

    ``capacity`` bounds the store: records evict true-LRU once the cap
    is hit (counted in ``counters.evictions``), and the raw-text memo is
    held at twice the cap.  ``None`` (the per-index default) keeps every
    record for the life of the store.

    ``dialect`` names the :class:`~repro.dialects.ApiDialect` every
    script in this store is lemmatized and parsed under; a store never
    mixes dialects (the process-wide cache keeps one store per dialect).
    """

    def __init__(self, capacity: Optional[int] = None, dialect: str = "pandas"):
        if capacity is not None and capacity < 1:
            raise ValueError(f"store capacity must be >= 1 when set, got {capacity}")
        self.capacity = capacity
        self.dialect = dialect
        self._lang_dialect = get_dialect(dialect)
        self._records: Union[Dict[str, ScriptRecord], LRUCache] = (
            {} if capacity is None else LRUCache(capacity)
        )
        #: sha1(raw source) -> content hash, so byte-identical re-adds
        #: skip lemmatization entirely
        self._raw_memo: Union[Dict[str, str], LRUCache] = (
            {} if capacity is None else LRUCache(2 * capacity)
        )
        self.counters = StoreCounters()

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, content_hash: str) -> bool:
        return content_hash in self._records

    def get(self, content_hash: str) -> Optional[ScriptRecord]:
        return self._records.get(content_hash)

    def _remember(self, record: ScriptRecord) -> None:
        self._records[record.content_hash] = record
        if isinstance(self._records, LRUCache):
            self.counters.evictions = self._records.evictions

    def put(self, record: ScriptRecord) -> None:
        """Insert an externally built record (snapshot restore path)."""
        if record.content_hash not in self._records:
            self._remember(record)

    def get_or_build(self, dag: ScriptDAG) -> ScriptRecord:
        """The record of a script parsed already, as *dag*.

        It is looked up by the content address of ``dag.normalized``; on
        a miss it is built from *dag*, so nothing is parsed, and the
        build counts as neither a hit nor a parse (:meth:`get_or_parse`
        counts its own parse).  *dag* must come from
        :func:`~repro.lang.parser.parse_script` under this store's dialect.
        """
        content_hash = content_address(dag.normalized)
        record = self._records.get(content_hash)
        if record is not None:
            self.counters.hits += 1
            return record
        record = ScriptRecord.from_dag(content_hash, dag.normalized, dag, self.dialect)
        self._remember(record)
        return record

    def get_or_parse(self, raw_source: str) -> Optional[ScriptRecord]:
        """The record for *raw_source*, parsing at most once per content.

        Returns None when the script is not parseable (mirroring
        :meth:`CorpusVocabulary.from_scripts`, which skips broken
        corpus scripts); the failure is counted, not raised.
        """
        # surrogatepass: text holding a lone surrogate hashes, then fails to parse
        raw_key = sha1(raw_source.encode("utf-8", "surrogatepass")).hexdigest()
        content_hash = self._raw_memo.get(raw_key)
        if content_hash is not None:
            record = self._records.get(content_hash)
            if record is not None:
                self.counters.hits += 1
                self.counters.lemma_hits += 1
                return record
        try:
            dag = parse_script(raw_source, dialect=self._lang_dialect)
        except ScriptError:
            self.counters.failures += 1
            return None
        content_hash = content_address(dag.normalized)
        self._raw_memo[raw_key] = content_hash
        if content_hash not in self._records:
            self.counters.parses += 1
        return self.get_or_build(dag)
