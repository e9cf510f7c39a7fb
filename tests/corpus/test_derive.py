"""Leave-one-out derivation in the warm corpus cache.

On an index-cache miss, ``cached_index`` copies a cached index whose
script sequence is the requested one with one script more, and retracts
that script through ``CorpusIndex.remove_script`` instead of building.
The contract under test: a derived index is bit-identical to a
from-scratch build (``verify()`` passes, and ``to_vocabulary()`` equals
``CorpusVocabulary.from_scripts`` of the remainder on every structure,
item order included), only the one-drop shape derives, and deriving
never changes or evicts the index it came from.

Run as a script, ``python -m tests.corpus.test_derive`` checks every
leave-one-out pair of the six competitions at seeds 0-2 with
``verify()`` on each (about 20 s); the tier-1 oracle compares every pair
and audits three per competition.
"""

import os
import random
import sys
import tempfile
import threading

import pytest

from repro.corpus import (
    CorpusIndex,
    cached_index,
    clear_corpus_cache,
    corpus_cache_counters,
)
from repro.corpus.cache import INDEX_CACHE_LIMIT
from repro.core import AuditMismatchError, LSConfig, LucidScript
from repro.lang import CorpusVocabulary, ScriptError, parse_script
from repro.workloads import build_competition, competition_names
from tests.corpus.test_index import SCRIPT_POOL, assert_bit_identical

SEEDS = (0, 1, 2)
#: the scripts, not the tables, are under test: small CSVs keep set-up short
ROWS = 200
BROKEN = "not ( python"
#: scripts that lemmatize alike under every dialect (no data-frame API)
PLAIN = ["x = 1\ny = x + 2\nz = y * 3", "x = 1\ny = x - 2", "a = 5\nb = a + 1\nc = b * a"]


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_corpus_cache()
    yield
    clear_corpus_cache()


def build_corpora(root):
    """``{seed: {competition: scripts}}`` for the six competitions."""
    return {
        seed: {
            name: build_competition(
                name, os.path.join(root, str(seed)), seed=seed, n_rows=ROWS
            ).scripts
            for name in competition_names()
        }
        for seed in SEEDS
    }


@pytest.fixture(scope="module")
def competitions(tmp_path_factory):
    return build_corpora(str(tmp_path_factory.mktemp("derive")))


def without(scripts, position):
    return scripts[:position] + scripts[position + 1:]


def derived(scripts, position):
    """``cached_index`` of *scripts* without *position*, checked to derive."""
    before = corpus_cache_counters()
    index = cached_index(without(scripts, position))
    delta = corpus_cache_counters().delta(before)
    assert (delta.index_derivations, delta.index_hits, delta.index_misses) == (1, 0, 1)
    assert (delta.script_hits, delta.script_parses) == (0, 0)
    return index


def assert_rebuilt_alike(index, scripts):
    """*index* is what a from-scratch build over *scripts* gives."""
    index.verify()
    assert_bit_identical(index.to_vocabulary(), CorpusVocabulary.from_scripts(scripts))
    rebuilt = CorpusIndex.from_scripts(scripts)
    assert (index.n_scripts, index.n_failures) == (rebuilt.n_scripts, rebuilt.n_failures)
    assert index.sources() == rebuilt.sources()


def check_pairs(corpora, audited):
    """Derive every leave-one-out index of *corpora* (``{name: scripts}``)
    and compare each with a from-scratch vocabulary of its remainder.

    ``verify()``, which re-parses the remainder, also audits the positions
    ``audited(n)`` names in each competition of n scripts.  Every parent
    must stay cached and pass ``verify()``.  Returns the number of pairs.
    """
    parents = {name: cached_index(scripts) for name, scripts in corpora.items()}
    pairs = 0
    for name, scripts in corpora.items():
        # CorpusVocabulary.from_scripts(rest), each script parsed once
        dags = [parse_script(script) for script in scripts]
        audit = set(audited(len(scripts)))
        for position in range(len(scripts)):
            index = derived(scripts, position)
            fresh = CorpusVocabulary(without(dags, position))
            assert_bit_identical(index.to_vocabulary(), fresh)
            assert index.n_scripts == len(scripts) - 1
            if position in audit:
                index.verify()
            pairs += 1
    for name, parent in parents.items():
        assert cached_index(corpora[name]) is parent
        parent.verify()
    return pairs


def ends_and_middle(n):
    return (0, n // 2, n - 1)


class TestOracle:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_leave_one_out_pair_is_bit_identical(self, competitions, seed):
        # verify() re-parses each remainder (about 12 ms a pair), so here
        # it audits three positions per competition; running this module
        # as a script audits every pair
        assert check_pairs(competitions[seed], ends_and_middle) >= 200


class TestEdgeCases:
    @pytest.mark.parametrize("position", [0, 3, len(SCRIPT_POOL) - 1])
    def test_first_middle_or_last_member(self, position):
        cached_index(SCRIPT_POOL)
        assert_rebuilt_alike(derived(SCRIPT_POOL, position), without(SCRIPT_POOL, position))

    @pytest.mark.parametrize("position", [0, 2])
    def test_either_copy_of_a_duplicate(self, position):
        # SCRIPT_POOL[0] and [1] lemmatize alike, so the pool holds three
        # copies of one content, two of them byte-identical
        scripts = [SCRIPT_POOL[0], SCRIPT_POOL[3], SCRIPT_POOL[0], SCRIPT_POOL[1]]
        cached_index(scripts)
        assert_rebuilt_alike(derived(scripts, position), without(scripts, position))

    @pytest.mark.parametrize("position", range(6))
    def test_unparseable_scripts_in_parent_and_request(self, position):
        scripts = [SCRIPT_POOL[2], BROKEN, SCRIPT_POOL[4], SCRIPT_POOL[5], "x = ("]
        scripts.append(SCRIPT_POOL[6])
        cached_index(scripts)
        assert_rebuilt_alike(derived(scripts, position), without(scripts, position))

    def test_dropping_the_only_parseable_script_raises_as_a_build(self):
        scripts = [BROKEN, SCRIPT_POOL[0], "x = ("]
        cached_index(scripts)
        with pytest.raises(ScriptError) as rebuilt:
            CorpusIndex.from_scripts(without(scripts, 1))
        before = corpus_cache_counters()
        with pytest.raises(ScriptError) as warm:
            cached_index(without(scripts, 1))
        assert str(warm.value) == str(rebuilt.value)
        assert corpus_cache_counters().delta(before).index_derivations == 0

    def test_dropping_an_unparseable_script_keeps_every_member(self):
        scripts = [SCRIPT_POOL[0], BROKEN, SCRIPT_POOL[1]]
        parent = cached_index(scripts)
        index = derived(scripts, 1)
        assert index is not parent
        assert (index.n_failures, parent.n_failures) == (0, 1)
        assert_rebuilt_alike(index, without(scripts, 1))

    def test_two_dropped_members_build_in_full(self):
        cached_index(SCRIPT_POOL)
        before = corpus_cache_counters()
        index = cached_index(SCRIPT_POOL[1:-1])
        delta = corpus_cache_counters().delta(before)
        assert (delta.index_derivations, delta.index_misses) == (0, 1)
        assert cached_index(SCRIPT_POOL[1:-1]) is index  # a full build is cached
        assert_rebuilt_alike(index, SCRIPT_POOL[1:-1])

    def test_reordered_or_replaced_scripts_build_in_full(self):
        cached_index(SCRIPT_POOL)
        before = corpus_cache_counters()
        cached_index(SCRIPT_POOL[1:3] + SCRIPT_POOL[4:] + SCRIPT_POOL[:1])
        cached_index(SCRIPT_POOL[:2] + [SCRIPT_POOL[6]] + SCRIPT_POOL[3:5])
        assert corpus_cache_counters().delta(before).index_derivations == 0

    def test_a_cached_index_of_another_dialect_is_not_a_parent(self):
        parent = cached_index(PLAIN, dialect="tablereport")
        before = corpus_cache_counters()
        index = cached_index(PLAIN[1:], dialect="pandas")
        assert corpus_cache_counters().delta(before).index_derivations == 0
        assert (index.dialect, parent.dialect) == ("pandas", "tablereport")
        before = corpus_cache_counters()
        assert cached_index(PLAIN[1:], dialect="tablereport").dialect == "tablereport"
        assert corpus_cache_counters().delta(before).index_derivations == 1

    def test_derived_indexes_are_not_cached(self):
        parent = cached_index(SCRIPT_POOL)
        first = derived(SCRIPT_POOL, 2)
        second = derived(SCRIPT_POOL, 2)
        assert first is not second and parent not in (first, second)
        assert cached_index(SCRIPT_POOL) is parent

    def test_verify_index_audits_a_derived_index(self, diabetes_corpus):
        scripts = diabetes_corpus + [SCRIPT_POOL[4]]
        cached_index(scripts)
        before = corpus_cache_counters()
        LucidScript(scripts[:-1], config=LSConfig(audit=True))
        assert corpus_cache_counters().delta(before).index_derivations == 1


class TestParents:
    def test_interleaved_constructions_only_derive(self, competitions):
        corpora = competitions[1]
        assert len(corpora) <= INDEX_CACHE_LIMIT
        parents = {name: cached_index(scripts) for name, scripts in corpora.items()}
        pairs = [(name, p) for name, scripts in corpora.items() for p in range(len(scripts))]
        rng = random.Random(24)
        before = corpus_cache_counters()
        for _ in range(200):
            name, position = rng.choice(pairs)
            LucidScript(without(corpora[name], position))
        delta = corpus_cache_counters().delta(before)
        assert (delta.index_derivations, delta.index_misses) == (200, 200)
        assert (delta.index_hits, delta.script_hits, delta.script_parses) == (0, 0, 0)
        for name, parent in parents.items():
            assert cached_index(corpora[name]) is parent
            parent.verify()

    def test_mutating_a_derived_index_leaves_its_parent_alone(self):
        parent = cached_index(SCRIPT_POOL)
        expected = parent.to_vocabulary()
        index = derived(SCRIPT_POOL, 1)
        index.add_script(SCRIPT_POOL[1])
        index.remove_script(index.script_ids()[0])
        assert_bit_identical(parent.to_vocabulary(), expected)
        parent.verify()
        assert_rebuilt_alike(index, SCRIPT_POOL[2:] + SCRIPT_POOL[1:2])

    def test_a_copy_and_its_source_are_independent(self):
        source = CorpusIndex.from_scripts(SCRIPT_POOL)
        copy = source._copy()
        source.remove_script(source.script_ids()[3])
        source.add_script(SCRIPT_POOL[0])
        copy.remove_script(copy.script_ids()[0])
        assert_rebuilt_alike(source, without(SCRIPT_POOL, 3) + SCRIPT_POOL[:1])
        assert_rebuilt_alike(copy, SCRIPT_POOL[1:])


class TestThreads:
    def test_threads_derive_from_shared_parents(self, competitions):
        corpora = competitions[2]
        for scripts in corpora.values():
            cached_index(scripts)
        pairs = [(name, p) for name, scripts in corpora.items() for p in range(len(scripts))]
        random.Random(7).shuffle(pairs)
        pairs = pairs[:80]
        # CorpusVocabulary.from_scripts(rest), each script parsed once
        dags = {name: [parse_script(s) for s in scripts] for name, scripts in corpora.items()}
        oracle = {
            pair: CorpusVocabulary(without(dags[pair[0]], pair[1])) for pair in pairs
        }
        errors = []

        def worker(offset):
            try:
                for name, position in pairs[offset:] + pairs[:offset]:
                    vocabulary = cached_index(without(corpora[name], position)).to_vocabulary()
                    assert_bit_identical(vocabulary, oracle[(name, position)])
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(20 * i,)) for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert corpus_cache_counters().index_derivations == 4 * len(pairs)


class TestAggregateOrder:
    """Counter insertion order is ``most_common()``'s tie order, so a
    removal must leave the order a from-scratch build would have."""

    def test_a_removed_first_member_hands_its_keys_on(self):
        # SCRIPT_POOL[3] holds SCRIPT_POOL[2]'s steps in another order
        scripts = SCRIPT_POOL[2:]
        index = CorpusIndex.from_scripts(scripts)
        index.remove_script(index.script_ids()[0])
        fresh = CorpusVocabulary.from_scripts(scripts[1:])
        mine = index.to_vocabulary()
        for what in ("edge_counts", "onegram_counts", "ngram_counts"):
            assert list(getattr(mine, what).items()) == list(getattr(fresh, what).items())

    def test_verify_catches_an_order_divergence(self):
        index = CorpusIndex.from_scripts(SCRIPT_POOL)
        first = next(iter(index.onegram_counts))
        index.onegram_counts[first] = index.onegram_counts.pop(first)  # to the end
        with pytest.raises(AuditMismatchError, match="^index: .*onegram_counts"):
            index.verify()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        corpora = build_corpora(root)
    total = 0
    for seed in SEEDS:
        clear_corpus_cache()
        total += check_pairs(corpora[seed], range)
    print(f"{total} leave-one-out pairs derive bit-identically, each one verified")
