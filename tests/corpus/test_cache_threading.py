"""Thread-safety of the process-wide corpus cache and LRUCache.

The server engine admits jobs (content-addressing corpora) on its event
loop while the job thread curates and clears, so the module-level
cache state must survive concurrent mutation.  These are regression
tests for the locked paths: they assert no exceptions, no lost
invariants, and — for the retrieval pin — that
``shared_retrieval_index().store is shared_store()`` holds after any
configure/clear interleaving.
"""

import random
import threading

import pytest

from repro._lru import LRUCache
from repro.corpus import (
    cached_index,
    clear_corpus_cache,
    configure_shared_store,
    corpus_key,
    shared_retrieval_index,
    shared_store,
)
from repro.corpus.cache import SHARED_STORE_LIMIT


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_corpus_cache()
    yield
    configure_shared_store(SHARED_STORE_LIMIT)


class TestThreadSafeLRUCache:
    def test_serial_path_has_no_lock(self):
        assert LRUCache(4)._lock is None
        assert LRUCache(4, thread_safe=True)._lock is not None

    def test_concurrent_mutation_preserves_the_bound(self):
        cache = LRUCache(32, thread_safe=True)
        errors = []

        def hammer(seed):
            rng = random.Random(seed)
            try:
                for _ in range(2000):
                    verb = rng.random()
                    key = rng.randrange(100)
                    if verb < 0.5:
                        cache[key] = key * 2
                    elif verb < 0.8:
                        value = cache.get(key)
                        assert value is None or value == key * 2
                    elif verb < 0.9:
                        cache.pop(key)
                    elif verb < 0.95:
                        cache.resize(rng.choice([8, 16, 32]))
                    else:
                        cache.clear()
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(seed,)) for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(cache) <= cache.capacity

    def test_keys_is_a_stable_snapshot(self):
        cache = LRUCache(8, thread_safe=True)
        for position in range(8):
            cache[position] = position
        snapshot = cache.keys()
        cache.clear()
        assert snapshot == list(range(8))


class TestConcurrentCorpusCache:
    def test_concurrent_keying_indexing_and_clearing(self, diabetes_corpus):
        """The server's real interleaving: admission threads computing
        corpus keys and curating while another thread clears/configures."""
        variant = [s.replace("SkinThickness", "Glucose") for s in diabetes_corpus]
        expected = {
            tuple(diabetes_corpus): corpus_key(diabetes_corpus),
            tuple(variant): corpus_key(variant),
        }
        clear_corpus_cache()
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(60):
                    corpus = rng.choice([diabetes_corpus, variant])
                    verb = rng.random()
                    if verb < 0.45:
                        # keys are content addresses: stable across any
                        # interleaving of clears and rebuilds
                        assert corpus_key(corpus) == expected[tuple(corpus)]
                    elif verb < 0.85:
                        index = cached_index(corpus)
                        assert index.n_scripts == len(corpus)
                    elif verb < 0.95:
                        clear_corpus_cache()
                    else:
                        shared_retrieval_index()
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []


class TestRetrievalStorePin:
    def test_invariant_after_any_configure_clear_sequence(self, diabetes_corpus):
        """shared_retrieval_index().store is shared_store() — always."""
        rng = random.Random(1234)
        operations = [
            lambda: configure_shared_store(rng.choice([2, 64, None])),
            clear_corpus_cache,
            shared_retrieval_index,
            lambda: shared_store().get_or_parse(diabetes_corpus[0]),
            lambda: cached_index(diabetes_corpus),
        ]
        for _ in range(50):
            rng.choice(operations)()
            assert shared_retrieval_index().store is shared_store()

    def test_stale_pin_is_rebuilt_not_served(self):
        """A retrieval index built over an orphaned store is detected."""
        from repro.corpus import RetrievalIndex, ScriptStore
        from repro.corpus import cache as cache_mod

        stale = RetrievalIndex(store=ScriptStore())
        with cache_mod._LOCK:
            cache_mod._SHARED_RETRIEVAL = stale
        pool = shared_retrieval_index()
        assert pool is not stale
        assert pool.store is shared_store()

    def test_configure_resets_the_retrieval_pin(self, diabetes_corpus):
        pool = shared_retrieval_index()
        for script in diabetes_corpus:
            pool.add_script(script)
        configure_shared_store(64)
        fresh = shared_retrieval_index()
        assert fresh is not pool
        assert fresh.n_scripts == 0
        assert fresh.store is shared_store()
