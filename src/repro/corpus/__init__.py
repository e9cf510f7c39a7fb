"""repro.corpus — persistent, content-addressed corpus index.

The offline phase (Section 5.1) as a long-lived, incrementally
maintained asset: a content-addressed :class:`ScriptStore` parses each
unique corpus script once, a :class:`CorpusIndex` keeps the exact
``CorpusVocabulary`` sufficient statistics under O(changed script)
add/remove/refresh deltas, snapshots persist to disk with a staleness
manifest, and a process-wide warm cache makes repeated ``LucidScript``
constructions over the same corpus near-free.

On top of that sits sub-linear retrieval: every record carries a cheap
:class:`ScriptSignature` (minhash + vocabulary + schema features), and
a :class:`RetrievalIndex` answers ``top_k(query, k)`` through LSH band
buckets and schema postings, assembling a working :class:`CorpusIndex`
from a giant pool without touching more than the true candidates.
"""

from .cache import (
    CorpusCacheCounters,
    cached_index,
    clear_corpus_cache,
    corpus_cache_counters,
    corpus_key,
    shared_store,
)
from .index import (
    CorpusIndex,
    MembershipIndex,
    RefreshReport,
    read_corpus_dir,
)
from .persistence import (
    index_from_dict,
    index_to_dict,
    load_index,
    save_index,
)
from .retrieval import (
    RetrievalCounters,
    RetrievalIndex,
    RetrievalMismatchError,
    RetrievedScript,
)
from .signatures import ScriptSignature, signature_similarity, table_signature
from .store import ScriptRecord, ScriptStore, StoreCounters, content_address

__all__ = [
    "CorpusCacheCounters",
    "CorpusIndex",
    "MembershipIndex",
    "RefreshReport",
    "RetrievalCounters",
    "RetrievalIndex",
    "RetrievalMismatchError",
    "RetrievedScript",
    "ScriptRecord",
    "ScriptSignature",
    "ScriptStore",
    "StoreCounters",
    "cached_index",
    "clear_corpus_cache",
    "content_address",
    "corpus_cache_counters",
    "corpus_key",
    "index_from_dict",
    "index_to_dict",
    "load_index",
    "read_corpus_dir",
    "save_index",
    "shared_store",
    "signature_similarity",
    "table_signature",
]
