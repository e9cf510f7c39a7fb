"""Process-wide warm corpus cache.

Two layers, both content-addressed:

* a shared :class:`~repro.corpus.store.ScriptStore` — every unique
  corpus script is lemmatized and parsed at most once per process, no
  matter how many indexes or ``LucidScript`` instances reference it.
  The store is *bounded* (:data:`SHARED_STORE_LIMIT` records, true-LRU) so a
  long-lived serving process holds a ceiling's worth of the pool while
  live indexes keep their own strong references to admitted records;
* an LRU of assembled :class:`~repro.corpus.index.CorpusIndex` objects
  keyed by the corpus's *content addresses in corpus order* — a repeated
  ``LucidScript(corpus)`` construction over the same scripts skips even
  the counter merging and goes straight to ``to_vocabulary()``.  Keys
  are resolved through a script-text → address memo, so a warm lookup
  hashes 40 bytes per script instead of the script itself.  A miss one
  script short of a cached sequence (a leave-one-out remainder) is
  derived from that index by retracting the script, not rebuilt.

Every layer only ever returns structures that are bit-identical to a
cold ``CorpusVocabulary.from_scripts`` build, which stays as the oracle
``CorpusIndex.verify`` audits against.  ``LucidScript`` curates every
raw-script corpus through this cache; there is no uncached path.

The index-cache key is the *ordered* address sequence, NOT a sorted
set: corpus order is semantic (it drives successor-Counter tie order,
template preference, and position means, all of which ``to_vocabulary``
reproduces bit-identically), so two orderings of the same scripts are
genuinely different corpora and must not share a cache entry.

Thread safety: the standardization server admits jobs on its event loop
while the job thread curates corpora, so every public function here
holds one module :class:`threading.RLock` around every use of the
shared globals.  The LRU layers are only used under it and take no lock
of their own: one per address lookup doubled the cost of a warm corpus
key.  Single-threaded callers pay one uncontended RLock acquire per
*cache* operation (not per script), which is noise next to a parse.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from hashlib import sha1
from typing import Dict, Optional, Sequence, Tuple

from .._lru import LRUCache
from .index import CorpusIndex
from .store import ScriptStore

__all__ = [
    "CorpusCacheCounters",
    "cached_index",
    "clear_corpus_cache",
    "corpus_cache_counters",
    "corpus_key",
    "shared_store",
]

#: Assembled indexes retained for identical corpus sequences (each entry
#: is ``(script addresses, index)``, the addresses for derivation).
INDEX_CACHE_LIMIT = 8
#: Record bound of each process-wide shared store.
SHARED_STORE_LIMIT = 4096
#: Script-text → content-address memo entries (corpus-key fast path).
ADDR_MEMO_LIMIT = 4 * SHARED_STORE_LIMIT

#: One lock for every read-modify-write of the module globals below —
#: reentrant because cached_index -> shared_store acquire it on the same
#: thread.
_LOCK = threading.RLock()

#: one shared store per dialect — corpora never mix dialects, so the
#: warm layers are partitioned by dialect name (created lazily)
_SHARED_STORES: Dict[str, ScriptStore] = {}
_INDEX_CACHE: LRUCache = LRUCache(INDEX_CACHE_LIMIT)
#: ``(dialect, raw script text)`` -> content address (or ``"failed:"``
#: marker).  Keyed per dialect because lemmatization is dialect-driven:
#: the same bytes can canonicalize differently under two surfaces.  The
#: str component keeps its interned hash, so a warm key computation
#: never re-hashes script bytes.
_ADDR_MEMO: LRUCache = LRUCache(ADDR_MEMO_LIMIT)


@dataclass(frozen=True)
class CorpusCacheCounters:
    """Point-in-time totals of the warm cache's activity."""

    index_hits: int
    index_misses: int
    script_hits: int  #: shared-store records served without building one
    script_parses: int  #: shared-store records built from a parse
    #: index misses served by retracting one script from a cached index
    index_derivations: int

    def delta(self, earlier: "CorpusCacheCounters") -> "CorpusCacheCounters":
        return CorpusCacheCounters(
            index_hits=self.index_hits - earlier.index_hits,
            index_misses=self.index_misses - earlier.index_misses,
            script_hits=self.script_hits - earlier.script_hits,
            script_parses=self.script_parses - earlier.script_parses,
            index_derivations=self.index_derivations - earlier.index_derivations,
        )


def shared_store(dialect: str = "pandas") -> ScriptStore:
    """The process-wide content-addressed parse cache (LRU-bounded).

    One store per dialect, created lazily; the default is the historical
    pandas store.
    """
    with _LOCK:
        store = _SHARED_STORES.get(dialect)
        if store is None:
            store = ScriptStore(capacity=SHARED_STORE_LIMIT, dialect=dialect)
            _SHARED_STORES[dialect] = store
        return store


#: address prefix of a script that does not parse (never an index member)
_FAILED = "failed:"


def _addresses(scripts: Sequence[str], dialect: str) -> Tuple[str, ...]:
    """The content addresses of raw corpus scripts, in order (memoized).

    On a memo miss the script is parsed *into the shared store*, so the
    work is not wasted: a ``CorpusIndex.from_scripts`` over the same
    sequence right after finds every record already resident.
    Unparseable scripts get a stable ``failed:`` address derived from
    their raw text.  Callers hold ``_LOCK``.
    """
    addresses = []
    for script in scripts:
        memo_key = (dialect, script)
        address = _ADDR_MEMO.get(memo_key)
        if address is None:
            record = shared_store(dialect).get_or_parse(script)
            if record is not None:
                address = record.content_hash
            else:
                raw = script.encode("utf-8", "surrogatepass")
                address = _FAILED + sha1(raw).hexdigest()
            _ADDR_MEMO[memo_key] = address
        addresses.append(address)
    return tuple(addresses)


def _key(addresses: Sequence[str], dialect: str) -> str:
    """Cache key of one corpus: dialect + content addresses, in order."""
    digest = sha1()
    digest.update(dialect.encode())
    digest.update(b"\x00")
    for address in addresses:
        digest.update(address.encode())
        digest.update(b"\x00")
    digest.update(str(len(addresses)).encode())
    return digest.hexdigest()


def corpus_key(scripts: Sequence[str], dialect: str = "pandas") -> str:
    """Public content address of a corpus (ordered script addresses).

    Two corpora share a key iff their scripts are byte-identical in the
    same order *and* were prepared under the same dialect — the identity
    the server engine uses for warm-state admission.
    """
    with _LOCK:
        return _key(_addresses(scripts, dialect), dialect)


#: module-level counters that outlive individual cache objects
_COUNTERS = {"index_derivations": 0}


def cached_index(scripts: Sequence[str], dialect: str = "pandas") -> CorpusIndex:
    """The warm index for this exact corpus sequence (built on miss).

    A miss whose sequence is a cached index's with exactly one script
    dropped (a leave-one-out remainder) is derived from that index
    instead of built; see :func:`_derive`.  Raises
    :class:`~repro.lang.errors.ScriptError` when no script parses,
    exactly like ``CorpusVocabulary.from_scripts``.  The returned index
    may be shared — treat it as read-only, or derive a private
    vocabulary via ``to_vocabulary()`` (which copies).
    """
    with _LOCK:
        addresses = _addresses(scripts, dialect)
        key = _key(addresses, dialect)
        entry = _INDEX_CACHE.get(key)
        if entry is not None:
            return entry[1]
        index = _derive(addresses, dialect)
        if index is not None:
            _COUNTERS["index_derivations"] += 1
            return index
        index = CorpusIndex.from_scripts(scripts, store=shared_store(dialect))
        # materialized before it is shared, so to_vocabulary() on other
        # threads only reads it (copies are made under _LOCK)
        index._materialize()
        _INDEX_CACHE[key] = (addresses, index)
        return index


def _derive(addresses: Tuple[str, ...], dialect: str) -> Optional[CorpusIndex]:
    """The index of *addresses* from a cached index with one more script.

    A cached index of the same dialect whose sequence is *addresses*
    with one script inserted is copied, and that script is retracted
    through ``remove_script``: only its signatures are re-materialized
    and no other record is re-aggregated.  The result equals a
    from-scratch build by the :class:`CorpusIndex` contract, so it is
    bit-identical.  It is not cached, so a derivation never evicts the
    index it came from; deriving again costs a copy and one retraction.
    Returns None (build in full) when no cached index fits, or when the
    dropped script was the parent's only member.
    """
    for parent_key in _INDEX_CACHE.keys():
        parent_addresses, parent = _INDEX_CACHE.peek(parent_key)
        if parent.dialect != dialect:
            continue
        dropped = _dropped_position(parent_addresses, addresses)
        if dropped is None:
            continue
        if parent_addresses[dropped].startswith(_FAILED):
            index = parent._copy()
            index.n_failures -= 1
            return index
        if len(parent) == 1:
            return None  # nothing parses: the build raises ScriptError
        member = sum(
            1 for address in parent_addresses[:dropped] if not address.startswith(_FAILED)
        )
        index = parent._copy()
        index.remove_script(index.script_ids()[member])
        return index
    return None


def _dropped_position(longer: Tuple[str, ...], shorter: Tuple[str, ...]) -> Optional[int]:
    """The position whose removal turns *longer* into *shorter*, or None.

    With adjacent duplicates several positions qualify; they all leave
    the same sequence, and the first is returned.
    """
    if len(longer) != len(shorter) + 1:
        return None
    position = 0
    for mine, theirs in zip(longer, shorter):
        if mine != theirs:
            break
        position += 1
    if longer[position + 1:] != shorter[position:]:
        return None
    return position


def corpus_cache_counters() -> CorpusCacheCounters:
    with _LOCK:
        stores = [store.counters for store in _SHARED_STORES.values()]
        return CorpusCacheCounters(
            index_hits=_INDEX_CACHE.hits,
            index_misses=_INDEX_CACHE.misses,
            script_hits=sum(counters.hits for counters in stores),
            script_parses=sum(counters.parses for counters in stores),
            index_derivations=_COUNTERS["index_derivations"],
        )


def clear_corpus_cache() -> None:
    """Drop every warm-cache layer (tests and memory-pressure hooks)."""
    with _LOCK:
        _SHARED_STORES.clear()
        _INDEX_CACHE.clear()
        _INDEX_CACHE.hits = 0
        _INDEX_CACHE.misses = 0
        _ADDR_MEMO.clear()
        _ADDR_MEMO.hits = 0
        _ADDR_MEMO.misses = 0
        for name in _COUNTERS:
            _COUNTERS[name] = 0
