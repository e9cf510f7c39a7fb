"""Thread-safety of the process-wide corpus cache and LRUCache.

The server engine admits jobs (content-addressing corpora) on its event
loop while the job thread curates and clears, so the module-level
cache state must survive concurrent mutation.  These are regression
tests for the locked paths: they assert no exceptions and no lost
invariants.
"""

import random
import threading

import pytest

from repro._lru import LRUCache
from repro.corpus import (
    cached_index,
    clear_corpus_cache,
    corpus_cache_counters,
    corpus_key,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_corpus_cache()
    yield
    clear_corpus_cache()


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
        corpus keys and curating while others clear and read the counters."""
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
                        # reads every shared store under the module lock
                        corpus_cache_counters()
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
