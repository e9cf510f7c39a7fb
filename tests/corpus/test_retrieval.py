"""Tests for the sub-linear retrieval engine.

The acceptance contract: ``top_k`` equals brute-force signature
similarity exactly (the retrieval audit), membership deltas under
any add/remove/refresh interleaving leave the index bit-identical to a
from-scratch build over the surviving scripts, results are deterministic
with content-address tie-breaking, and a retrieval-assembled search is
bit-identical to the same scripts curated by hand.
"""

import ast
import json
import random
from collections import Counter

import pytest

from repro.core import AuditMismatchError, LSConfig, LucidScript, StandardizationError
from repro.core.entropy import RelativeEntropyScorer
from repro.corpus import (
    CorpusIndex,
    RetrievalIndex,
    RetrievalMismatchError,
    ScriptStore,
    clear_corpus_cache,
    index_to_dict,
    load_index,
    save_index,
    shared_store,
    table_signature,
)
from repro.corpus.signatures import (
    NUM_PERM,
    _cosine,
    bands_collide,
    signature_from_dict,
    signature_similarity,
    signature_to_dict,
)
from repro.lang import ScriptError


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_corpus_cache()
    yield
    clear_corpus_cache()


def make_pool(seed: int, n_clusters: int = 6, variants: int = 5):
    """A seeded pool of parseable scripts in dataset clusters."""
    rng = random.Random(seed)
    scripts = []
    for c in range(n_clusters):
        cols = [f"c{c}_{j}" for j in range(3)]
        for v in range(variants):
            lines = ["import pandas as pd", f"df = pd.read_csv('data_{c}.csv')"]
            if rng.random() < 0.7:
                lines.append(f"df = df.fillna({v})")
            if rng.random() < 0.5:
                lines.append(f"df['{cols[0]}'] = df['{cols[0]}'].astype(int)")
            if rng.random() < 0.5:
                lines.append("df = df.drop_duplicates()")
            if rng.random() < 0.4:
                lines.append("df = df.dropna()")
            lines.append("df")
            scripts.append("\n".join(lines))
    return scripts


def retrieval_state(index: RetrievalIndex):
    """The index's derived state keyed by content hash.

    Row numbers depend on the order of admits and removals, so each
    live row's columns and every bucket and posting are read back
    through the row -> content hash map (floats by ``hex``).
    """
    hashes = index._row_hashes
    live = {row: content_hash for content_hash, row in index._rows.items()}
    assert {row: hashes[row] for row in live} == live
    assert sorted(index._free_rows) == [
        row for row, content_hash in enumerate(hashes) if content_hash is None
    ]
    assert sorted([*live, *index._free_rows]) == list(range(len(hashes)))
    columns = {
        content_hash: (
            tuple(index._minhash[row].tolist()),
            int(index._schema_sizes[row]),
            int(index._vocab_sizes[row]),
            tuple(value.hex() for value in index._groups[row].tolist()),
            float(index._norms[row]).hex(),
        )
        for row, content_hash in live.items()
    }

    def by_hash(postings):
        return {key: {hashes[row] for row in rows} for key, rows in postings.items()}

    return (
        columns,
        by_hash(index._bands),
        by_hash(index._schema_posts),
        by_hash(index._vocab_posts),
    )


class TestSignatures:
    def test_signature_round_trips_bit_identically(self):
        store = shared_store()
        record = store.get_or_parse(make_pool(0)[0])
        back = signature_from_dict(
            record.content_hash, json.loads(json.dumps(signature_to_dict(record.signature)))
        )
        assert back == record.signature

    def test_positive_similarity_implies_retrievability(self):
        """The gate: score > 0 only for band-colliding or schema-sharing pairs."""
        store = shared_store()
        records = [store.get_or_parse(s) for s in make_pool(1)]
        signatures = [r.signature for r in records if r is not None]
        for a in signatures:
            for b in signatures:
                score = signature_similarity(a, b)
                reachable = bands_collide(a.minhash, b.minhash) or (a.schema & b.schema)
                if score > 0:
                    assert reachable
                else:
                    assert not reachable

    def test_identical_scripts_have_similarity_one(self):
        store = shared_store()
        record = store.get_or_parse(make_pool(2)[0])
        assert signature_similarity(record.signature, record.signature) == 1.0

    def test_cosine_does_not_depend_on_the_interpreter(self):
        """Left-to-right sums: Python 3.12+'s compensated sum() gives ...726."""
        value = _cosine(
            (0.2, 0.4, 0.1, 0.1, 0.1, 0.1), (0.25, 0.25, 0.25, 0.0, 0.25, 0.0)
        )
        assert value.hex() == "0x1.a20bd700c2c3dp-1"  # 0.8164965809277259

    def test_table_signature_is_schema_only(self):
        signature = table_signature(["Age", "BMI"])
        assert signature.minhash == ()
        assert signature.vocab == frozenset()
        assert signature.schema == frozenset({"Age", "BMI"})


def interleaved(seed: int, steps: int = 80):
    """A pool after *steps* seeded admits and removals, and its live
    members as ``{script_id: script text}``."""
    rng = random.Random(seed)
    pool = make_pool(seed)
    index = RetrievalIndex()
    alive = {}
    for step in range(steps):
        if alive and rng.random() < 0.4:
            script_id = rng.choice(sorted(alive))
            del alive[script_id]
            index.remove_script(script_id)
        else:
            script = rng.choice(pool)
            script_id = index.add_script(script)
            assert script_id is not None
            alive[script_id] = script
    return index, alive


class TestDeltas:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_interleaving_matches_from_scratch(self, seed):
        """add/remove interleavings leave state bit-identical to a rebuild."""
        index, alive = interleaved(seed)
        survivors = [alive[script_id] for script_id in sorted(alive)]
        if survivors:
            fresh = RetrievalIndex.from_scripts(survivors)
            assert retrieval_state(index) == retrieval_state(fresh)
        else:
            assert retrieval_state(index) == ({}, {}, {}, {})

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_band_buckets_are_tuples_of_distinct_live_rows(self, seed):
        index, alive = interleaved(seed, steps=120)
        assert alive and index._bands
        live = set(index._rows.values())
        for bucket in index._bands.values():
            assert type(bucket) is tuple and bucket
            assert len(set(bucket)) == len(bucket)
            assert set(bucket) <= live

    def test_duplicate_members_do_not_change_buckets(self):
        pool = make_pool(3)
        index = RetrievalIndex.from_scripts(pool)
        state = retrieval_state(index)
        ids = [index.add_script(script) for script in pool]
        assert retrieval_state(index) == state
        for script_id in ids:
            index.remove_script(script_id)
        assert retrieval_state(index) == state

    def test_refresh_directory_matches_from_scratch(self, tmp_path):
        pool = make_pool(4)
        pool_dir = tmp_path / "pool"
        pool_dir.mkdir()
        for position, script in enumerate(pool):
            (pool_dir / f"s_{position:03d}.py").write_text(script + "\n")
        index = RetrievalIndex()
        index.refresh(str(pool_dir))
        # change one file, delete another, add a third
        (pool_dir / "s_000.py").write_text(pool[1] + "\ndf = df.dropna()\ndf\n")
        (pool_dir / "s_001.py").unlink()
        (pool_dir / "zz_new.py").write_text(pool[2] + "\n")
        index.refresh()
        fresh = RetrievalIndex()
        fresh.refresh(str(pool_dir))
        assert retrieval_state(index) == retrieval_state(fresh)
        assert index.top_k(pool[2], 5) == fresh.top_k(pool[2], 5)


class TestTopK:
    def test_equals_brute_force_for_every_pool_query(self):
        """The retrieval audit over a whole seeded pool."""
        pool = make_pool(5)
        index = RetrievalIndex.from_scripts(pool)
        for script in pool:
            hits = index.top_k(script, 7, verify=True)  # raises on divergence
            brute = index.brute_force_top_k(script, 7)
            assert [(h.content_hash, h.score) for h in hits] == [
                (h.content_hash, h.score) for h in brute
            ]

    def test_self_is_top_hit(self):
        pool = make_pool(6)
        index = RetrievalIndex.from_scripts(pool)
        record = index.store.get_or_parse(pool[0])
        hits = index.top_k(pool[0], 3)
        assert hits[0].content_hash == record.content_hash
        assert hits[0].score == 1.0

    def test_deterministic_across_pool_insertion_orders(self):
        pool = make_pool(7)
        shuffled = list(pool)
        random.Random(99).shuffle(shuffled)
        a = RetrievalIndex.from_scripts(pool)
        b = RetrievalIndex.from_scripts(shuffled)
        for script in pool[:5]:
            assert [(h.content_hash, h.score) for h in a.top_k(script, 6)] == [
                (h.content_hash, h.score) for h in b.top_k(script, 6)
            ]

    def test_zero_score_padding_breaks_ties_on_content_address(self):
        """An unrelated query pads via full-scan fallback in hash order."""
        pool = make_pool(8)
        index = RetrievalIndex.from_scripts(pool)
        before = index.counters.snapshot()
        hits = index.top_k(table_signature(["no_such_column"]), 5)
        assert index.counters.fallbacks == before[2] + 1
        assert all(hit.score == 0.0 for hit in hits)
        assert [h.content_hash for h in hits] == sorted(h.content_hash for h in hits)

    def test_table_query_ranks_schema_overlap(self):
        pool = make_pool(9)
        index = RetrievalIndex.from_scripts(pool)
        hits = index.top_k(table_signature(["c0_0"]), 3)
        assert hits[0].score > 0
        assert "c0_0" in hits[0].record.signature.schema

    def test_counters_and_validation(self):
        pool = make_pool(10)
        index = RetrievalIndex.from_scripts(pool)
        with pytest.raises(ValueError):
            index.top_k(pool[0], 0)
        with pytest.raises(ScriptError):
            index.top_k("this is not python (", 3)
        with pytest.raises(TypeError):
            index.top_k(12345, 3)
        before = index.counters.snapshot()
        index.top_k(pool[0], 3)
        assert index.counters.queries == before[0] + 1
        assert index.counters.candidates > before[1]

    def test_audit_catches_a_corrupted_index(self):
        pool = make_pool(11)
        index = RetrievalIndex.from_scripts(pool)
        target = index._rows[index.store.get_or_parse(pool[0]).content_hash]
        # simulate an engine bug: unhook one script from every bucket
        for key, bucket in index._bands.items():
            index._bands[key] = tuple(row for row in bucket if row != target)
        for posting in index._schema_posts.values():
            posting.discard(target)
        # the historical name, which callers still import, is the one class
        assert RetrievalMismatchError is AuditMismatchError
        with pytest.raises(AuditMismatchError) as caught:
            index.top_k(pool[0], 3, verify=True)
        assert caught.value.layer == "retrieval"


class TestAssembly:
    def test_assembled_corpus_is_bit_identical_to_from_scratch(self):
        pool = make_pool(12)
        index = RetrievalIndex.from_scripts(pool)
        corpus = index.assemble(pool[0], 8)
        corpus.verify()  # bit-identity audit vs CorpusVocabulary.from_scripts
        assert corpus.n_scripts == 8

    def test_assembly_order_is_retrieval_order(self):
        pool = make_pool(13)
        index = RetrievalIndex.from_scripts(pool)
        hits = index.top_k(pool[0], 6)
        corpus = index.assemble_from_hits(hits)
        assert corpus.content_hashes() == [hit.content_hash for hit in hits]

    def test_empty_hits_raise(self):
        index = RetrievalIndex()
        with pytest.raises(ScriptError):
            index.assemble_from_hits([])


class TestPersistence:
    def test_snapshot_round_trip(self, tmp_path):
        pool = make_pool(14)
        index = RetrievalIndex.from_scripts(pool)
        path = str(tmp_path / "pool.retr.json")
        save_index(index, path)
        back = RetrievalIndex.from_index(load_index(path))
        assert retrieval_state(back) == retrieval_state(index)
        assert back.top_k(pool[0], 5) == index.top_k(pool[0], 5)

    @pytest.mark.parametrize(
        "field, damage",
        [
            ("minhash", lambda values: values[:-1]),
            ("minhash", lambda values: values[:-1] + [2 ** 64]),
            ("minhash", lambda values: values[:-1] + [(1 << 61) - 1]),
            ("minhash", lambda values: values[:-1] + [-1]),
            ("minhash", lambda values: values[:-1] + [float(values[-1])]),
            ("minhash", lambda values: [True] * NUM_PERM),
            ("minhash", lambda values: None),
            ("groups", lambda values: values[:-1]),
            ("groups", lambda values: values[:-1] + ["0.5"]),
            ("groups", lambda values: values[:-1] + [float("nan")]),
            ("vocab", lambda values: values + [3]),
            ("schema", lambda values: "data.csv"),
        ],
    )
    def test_corrupt_signature_fails_the_load(self, tmp_path, field, damage):
        """A damaged signature raises, naming script and field; nothing loads."""
        pool = make_pool(19)
        path = str(tmp_path / "pool.json")
        save_index(RetrievalIndex.from_scripts(pool), path)
        with open(path) as handle:
            payload = json.load(handle)
        content_hash = sorted(payload["records"])[0]
        signature = payload["records"][content_hash]["signature"]
        signature[field] = damage(signature[field])
        with open(path, "w") as handle:
            json.dump(payload, handle)
        store = ScriptStore()
        with pytest.raises(ValueError, match=rf"{content_hash}: '{field}'"):
            load_index(path, store=store)
        assert len(store) == 0

    def test_corrupt_signature_fails_a_corpus_index_load(self, tmp_path):
        pool = make_pool(20)
        path = str(tmp_path / "corpus.json")
        save_index(CorpusIndex.from_scripts(pool), path)
        with open(path) as handle:
            payload = json.load(handle)
        content_hash = sorted(payload["records"])[-1]
        payload["records"][content_hash]["signature"]["minhash"].pop()
        with open(path, "w") as handle:
            json.dump(payload, handle)
        with pytest.raises(ValueError, match=rf"{content_hash}: 'minhash'"):
            load_index(path, store=ScriptStore())

    def test_one_snapshot_format_both_ways(self, tmp_path):
        """A pool and a corpus index over the same scripts write the same
        snapshot, and either loads as a corpus index or, through
        ``from_index``, as a pool; the ``kind`` older pool snapshots
        carry is ignored."""
        pool = make_pool(15)
        retrieval = RetrievalIndex.from_scripts(pool)
        corpus = CorpusIndex.from_scripts(pool)
        assert index_to_dict(retrieval) == index_to_dict(corpus)
        assert "kind" not in index_to_dict(retrieval)
        retrieval_path = str(tmp_path / "a.json")
        corpus_path = str(tmp_path / "b.json")
        save_index(retrieval, retrieval_path)
        save_index(corpus, corpus_path)
        with open(retrieval_path) as handle:
            payload = json.load(handle)
        payload["kind"] = "retrieval"
        with open(retrieval_path, "w") as handle:
            json.dump(payload, handle)
        from_pool = load_index(retrieval_path)
        assert from_pool.content_hashes() == corpus.content_hashes()
        assert from_pool.to_vocabulary().edge_counts == corpus.to_vocabulary().edge_counts
        back = RetrievalIndex.from_index(load_index(corpus_path))
        assert retrieval_state(back) == retrieval_state(retrieval)
        assert back.top_k(pool[0], 5) == retrieval.top_k(pool[0], 5)

    def test_pre_retrieval_snapshot_recomputes_signatures(self, tmp_path):
        """Old snapshots (no persisted signatures) load bit-identically."""
        pool = make_pool(16)
        index = CorpusIndex.from_scripts(pool)
        path = str(tmp_path / "old.json")
        save_index(index, path)
        with open(path) as handle:
            payload = json.load(handle)
        for record_payload in payload["records"].values():
            del record_payload["signature"]
        with open(path, "w") as handle:
            json.dump(payload, handle)
        back = load_index(path)
        for content_hash, record in back._records.items():
            assert record.signature == index._records[content_hash].signature


class TestLucidScriptRetrieval:
    def test_full_search_parity_with_hand_curated_corpus(
        self, diabetes_corpus, diabetes_dir
    ):
        """Retrieval-assembled standardization == hand-curated, bit for bit."""
        noise = make_pool(17)
        pool = RetrievalIndex(store=shared_store())
        for script in diabetes_corpus + noise:
            pool.add_script(script)
        user = (
            "import pandas as pd\n"
            "df = pd.read_csv('diabetes.csv')\n"
            "df = df.fillna(df.mean())\n"
            "df = pd.get_dummies(df)"
        )
        k = len(diabetes_corpus)
        config = LSConfig(retrieval_k=k, audit=True)
        retrieved = LucidScript(pool, data_dir=diabetes_dir, config=config)
        queries, candidates = pool.counters.queries, pool.counters.candidates
        result_retrieved = retrieved.standardize(user)
        assert pool.counters.queries == queries + 1
        assert pool.counters.candidates > candidates
        hand = [hit.record.source for hit in pool.top_k(user, k)]
        curated = LucidScript(hand, data_dir=diabetes_dir, config=LSConfig())
        result_curated = curated.standardize(user)
        assert result_retrieved.output_script == result_curated.output_script
        assert result_retrieved.re_before == result_curated.re_before
        assert result_retrieved.re_after == result_curated.re_after

    def test_retrieval_prefers_same_dataset_peers(self, diabetes_corpus):
        noise = make_pool(18)
        pool = RetrievalIndex(store=shared_store())
        for script in diabetes_corpus + noise:
            pool.add_script(script)
        peer_hashes = {
            pool.store.get_or_parse(script).content_hash
            for script in diabetes_corpus
        }  # peers 0 and 1 lemmatize to the same canonical script
        hits = pool.top_k(diabetes_corpus[0], len(peer_hashes))
        assert {hit.content_hash for hit in hits} == peer_hashes

    def test_score_reuses_search_space_for_same_query(self, diabetes_corpus):
        pool = RetrievalIndex.from_scripts(diabetes_corpus)
        system = LucidScript(pool, config=LSConfig(retrieval_k=2))
        first = system.score(diabetes_corpus[0])
        queries_after_first = pool.counters.queries
        assert system.score(diabetes_corpus[0]) == first
        assert pool.counters.queries == queries_after_first  # reused
        system.score(diabetes_corpus[2])  # different query re-retrieves
        assert pool.counters.queries == queries_after_first + 1

    def test_score_lemmatizes_a_never_seen_query_once(
        self, diabetes_corpus, monkeypatch
    ):
        import importlib

        import repro.lang.parser as parser_module

        # the package re-exports the function under the module's name
        lemmatize_module = importlib.import_module("repro.lang.lemmatize")

        pool = RetrievalIndex(store=shared_store())
        for script in diabetes_corpus[1:] + make_pool(21):
            pool.add_script(script)
        query = diabetes_corpus[0] + "\ndf = df.dropna()"
        real = lemmatize_module.lemmatize_statements
        calls = []

        def counting(source, *args, **kwargs):
            calls.append(source)
            return real(source, *args, **kwargs)

        # every lemmatization of a raw script, by lemmatize() or by
        # parse_script(), is one lemmatize_statements pass
        for module in (lemmatize_module, parser_module):
            monkeypatch.setattr(module, "lemmatize_statements", counting)
        score = LucidScript(pool, config=LSConfig(retrieval_k=3)).score(query)
        assert calls == [query]
        monkeypatch.undo()
        hand = [hit.record.source for hit in pool.top_k(query, 3)]
        assert score == LucidScript(hand, config=LSConfig()).score(query)

    def test_unparseable_query_raises_standardization_error(self, diabetes_corpus):
        pool = RetrievalIndex.from_scripts(diabetes_corpus)
        system = LucidScript(pool, config=LSConfig(retrieval_k=2))
        with pytest.raises(StandardizationError):
            system.score("not a script ((((")

    def test_config_validates_retrieval_k(self):
        with pytest.raises(ValueError):
            LSConfig(retrieval_k=0)


class TestScoreFromNeighbourCounts:
    """score() on a pool reads the query's record and its hits' edge
    counts: it parses the query once and assembles no working corpus.
    The query, the paper's running example, is not in the pool."""

    @staticmethod
    def pool(diabetes_corpus):
        pool = RetrievalIndex(store=shared_store())
        for script in diabetes_corpus + make_pool(22):
            pool.add_script(script)
        return pool

    @staticmethod
    def assembled_score(pool, query, k):
        corpus = pool.assemble_from_hits(pool.top_k(query, k))
        return RelativeEntropyScorer(corpus.to_vocabulary()).score_source(
            query, lemmatized=False
        )

    def test_a_never_seen_query_is_parsed_once(
        self, diabetes_corpus, alex_script, monkeypatch
    ):
        pool = self.pool(diabetes_corpus)
        real, parsed = ast.parse, []

        def counting(source, *args, **kwargs):
            parsed.append(source)
            return real(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting)
        score = LucidScript(pool, config=LSConfig(retrieval_k=3)).score(alex_script)
        assert parsed == [alex_script]
        monkeypatch.undo()
        assert score.hex() == self.assembled_score(pool, alex_script, 3).hex()

    def test_nothing_is_assembled(self, diabetes_corpus, alex_script, monkeypatch):
        pool = self.pool(diabetes_corpus)
        calls = []
        for owner, name in (
            (RetrievalIndex, "assemble"),
            (RetrievalIndex, "assemble_from_hits"),
            (CorpusIndex, "to_vocabulary"),
            (RelativeEntropyScorer, "__init__"),
        ):
            real = getattr(owner, name)

            def spy(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)
        system = LucidScript(pool, config=LSConfig(retrieval_k=3))
        score = system.score(alex_script)
        assert calls == []
        assert system.vocabulary is None and system.scorer is None
        monkeypatch.undo()
        assert score.hex() == self.assembled_score(pool, alex_script, 3).hex()

    def test_score_then_standardize_retrieves_once(
        self, diabetes_corpus, diabetes_dir, alex_script, monkeypatch
    ):
        pool = self.pool(diabetes_corpus)
        real, queries = RetrievalIndex.top_k, []

        def counting(index, *args, **kwargs):
            queries.append(args)
            return real(index, *args, **kwargs)

        monkeypatch.setattr(RetrievalIndex, "top_k", counting)
        system = LucidScript(pool, data_dir=diabetes_dir, config=LSConfig(retrieval_k=4))
        before = pool.counters.snapshot()
        score = system.score(alex_script)
        result = system.standardize(alex_script)
        assert len(queries) == 1
        assert result.re_before.hex() == score.hex()
        assert pool.counters.queries == before[0] + 1
        assert pool.counters.candidates > before[1]
        # the working corpus is the one the hits assemble into
        assembled = pool.assemble_from_hits(real(pool, alex_script, 4)).to_vocabulary()
        assert system.vocabulary.edge_counts == assembled.edge_counts
        # a new query drops it until the system standardizes again
        system.score(diabetes_corpus[0])
        assert len(queries) == 2
        assert system.vocabulary is None and system.scorer is None

    def test_verify_index_catches_a_lean_score_that_differs(
        self, diabetes_corpus, alex_script, monkeypatch
    ):
        pool = self.pool(diabetes_corpus)
        audited = LSConfig(retrieval_k=3, audit=True)
        exact = LucidScript(pool, config=audited).score(alex_script)
        real = RelativeEntropyScorer.on_edges.__func__

        def skewed(cls, edges, corpus):
            # one extra corpus edge moves the total, so q̂ and ε
            return real(cls, edges, [*corpus, Counter({("x = 1", "y = x"): 1})])

        monkeypatch.setattr(RelativeEntropyScorer, "on_edges", classmethod(skewed))
        unaudited = LucidScript(pool, config=LSConfig(retrieval_k=3)).score(alex_script)
        assert unaudited != exact
        with pytest.raises(AuditMismatchError, match="^index: .*assembled corpus"):
            LucidScript(pool, config=audited).score(alex_script)
