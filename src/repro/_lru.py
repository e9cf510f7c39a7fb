"""A tiny LRU cache with hit, miss and eviction counts.

Several hot paths keep bounded memo tables — the sandbox's parsed-CSV
cache, the beam search's execution memo, the process-wide parsed-statement
and code-object caches, and the incremental executor's namespace
snapshots.  They all share this one implementation so eviction is true
LRU (lookups refresh recency); the corpus cache reports its index
cache's hits and misses in :func:`repro.corpus.corpus_cache_counters`.

Caches shared across threads (the server engine's warm registry, the
process-wide statement and code caches) construct with
``thread_safe=True``, which guards every mutating operation with an
:class:`threading.RLock`; the corpus cache's layers are used only under
that module's own lock instead.  The default stays lock-free: the hot
single-threaded paths (beam memos, snapshot pools) pay nothing for the
option.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Iterator, List, Optional

__all__ = ["LRUCache"]

_MISSING = object()


class LRUCache:
    """Bounded mapping with least-recently-used eviction.

    A ``capacity`` of 0 disables storage entirely (every lookup misses),
    which callers use as an off switch without branching at every site.
    """

    def __init__(self, capacity: int, thread_safe: bool = False):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock: Optional[threading.RLock] = (
            threading.RLock() if thread_safe else None
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------- mapping api
    def get(self, key: Hashable, default: Any = None) -> Any:
        if self._lock is not None:
            with self._lock:
                return self._get(key, default)
        return self._get(key, default)

    def _get(self, key: Hashable, default: Any) -> Any:
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return default
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Lookup without touching recency or hit/miss counters."""
        if self._lock is not None:
            with self._lock:
                return self._entries.get(key, default)
        return self._entries.get(key, default)

    def __setitem__(self, key: Hashable, value: Any) -> None:
        if self._lock is not None:
            with self._lock:
                self._set(key, value)
            return
        self._set(key, value)

    def _set(self, key: Hashable, value: Any) -> None:
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._entries)

    def keys(self) -> List[Hashable]:
        """A stable list of keys (LRU to MRU) — safe to iterate while
        other threads mutate a thread-safe cache."""
        if self._lock is not None:
            with self._lock:
                return list(self._entries)
        return list(self._entries)

    def pop(self, key: Hashable, default: Any = None) -> Any:
        if self._lock is not None:
            with self._lock:
                return self._entries.pop(key, default)
        return self._entries.pop(key, default)

    def clear(self) -> None:
        if self._lock is not None:
            with self._lock:
                self._entries.clear()
            return
        self._entries.clear()

    def resize(self, capacity: int) -> None:
        """Change capacity in place, evicting LRU entries if shrinking.

        For caches whose bound is configurable after construction: two
        caches resized to the same capacity before the same operation
        sequence make the same eviction decisions.
        """
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        if self._lock is not None:
            with self._lock:
                self._resize(capacity)
            return
        self._resize(capacity)

    def _resize(self, capacity: int) -> None:
        self.capacity = capacity
        if capacity == 0:
            if self._entries:
                self.evictions += len(self._entries)
                self._entries.clear()
            return
        while len(self._entries) > capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
