"""The array paths of the retrieval layer against their scalar oracles.

``RetrievalIndex.top_k`` scores candidates from a column store and
``minhash_signature`` computes all permutations as one uint64 array
expression.  Both must equal, bit for bit, the scalar code kept as the
reference: ``brute_force_top_k`` over ``signature_similarity`` (scores
compared by ``float.hex``, so -0.0 cannot pass as 0.0, plus the counter
deltas of candidate generation) and the big-int minhash below.

``LucidScript.score`` on a pool computes RE from the query's record and
its hits' edge counts alone; it must equal, by ``float.hex``, the score
over the assembled corpus's vocabulary and a recount over the
brute-force winners, and fail with the same message where RE is
undefined.
"""

import os
import tempfile
from hashlib import blake2b

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LSConfig, LucidScript, StandardizationError
from repro.core.entropy import RelativeEntropyScorer
from repro.corpus import RetrievalIndex, ScriptSignature, ScriptStore, table_signature
from repro.corpus.signatures import (
    _MERSENNE,
    _PERMS,
    N_PHASES,
    NUM_PERM,
    _minhash_values,
    bands_collide,
    minhash_signature,
    script_shingles,
)
from repro.dialects import get_dialect
from repro.dialects.tablereport_corpus import generate_corpus
from repro.lang import CorpusVocabulary, parse_script

from .test_retrieval import make_pool, retrieval_state


def reference_minhash(hashes):
    """The big-int minhash: ``min((a*h + b) % M)`` per permutation."""
    return tuple(min((a * h + b) % _MERSENNE for h in hashes) for a, b in _PERMS)


def shingle_hashes(shingles):
    return [
        int.from_bytes(blake2b(s.encode(), digest_size=8).digest(), "big")
        for s in shingles
    ]


EDGE_HASHES = [
    0,
    1,
    _MERSENNE - 1,
    _MERSENNE,
    _MERSENNE + 1,
    1 << 61,
    2 * _MERSENNE,
    1 << 63,
    (1 << 64) - 1,
]

#: Hashes that some permutation maps to 0, 1 or M - 1 (where a missing
#: final reduction would show), also offset by multiples of M.
RESIDUE_HASHES = [
    ((residue - b) * pow(a, -1, _MERSENNE)) % _MERSENNE + multiple * _MERSENNE
    for a, b in _PERMS[:4]
    for residue in (0, 1, _MERSENNE - 1)
    for multiple in (0, 1, 7)
]

hash_value = st.one_of(
    st.sampled_from(EDGE_HASHES + RESIDUE_HASHES), st.integers(0, (1 << 64) - 1)
)


class TestMinhashKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(hash_value, min_size=1, max_size=40))
    def test_equals_big_int_expression(self, hashes):
        got = _minhash_values(np.array(hashes, dtype=np.uint64)).tolist()
        assert tuple(got) == reference_minhash(hashes)

    def test_every_edge_value_alone_and_together(self):
        for value in EDGE_HASHES + RESIDUE_HASHES:
            got = _minhash_values(np.array([value], dtype=np.uint64)).tolist()
            assert tuple(got) == reference_minhash([value])
        for values in (EDGE_HASHES, RESIDUE_HASHES):
            got = _minhash_values(np.array(values, dtype=np.uint64)).tolist()
            assert tuple(got) == reference_minhash(values)

    def test_every_signature_of_a_generated_competition(self, medical_competition):
        store = ScriptStore()
        checked = 0
        for script in medical_competition.scripts:
            record = store.get_or_parse(script)
            shingles = script_shingles(record.source, record.onegram_counts)
            expected = reference_minhash(shingle_hashes(shingles))
            assert minhash_signature(shingles) == expected
            assert record.signature.minhash == expected
            assert all(type(value) is int for value in record.signature.minhash)
            checked += 1
        assert checked == len(medical_competition.scripts) > 0

    def test_empty_shingle_set(self):
        assert minhash_signature(set()) == ()


#: Scripts whose schema is exactly {'tie.csv'}: a table query on that file
#: scores every one of them 0.15, so a small k cuts through a tie.
TIE_SCRIPTS = [
    "import pandas as pd\n"
    "df = pd.read_csv('tie.csv')\n"
    f"df = df.fillna({value})\n"
    "df"
    for value in range(6)
]

SCRIPTS = make_pool(30, n_clusters=4, variants=4) + TIE_SCRIPTS + [""]
NEVER_SEEN = [
    script for script in make_pool(31, n_clusters=5, variants=3) if script not in SCRIPTS
] + [
    "import pandas as pd\ndf = pd.read_csv('tie.csv')\ndf = df.dropna()\ndf",
    "import pandas as pd\ndf = pd.read_csv('other.csv')\ndf",
]
COLUMNS = ["data_0.csv", "data_1.csv", "c0_0", "c2_0", "tie.csv", "no_such_column"]


@pytest.fixture(scope="module")
def store():
    return ScriptStore()


def expected_counters(index, signature, k):
    """Counter deltas of one query, from the scalar retrievability events."""
    pool = [record.signature for record in index._records.values()]
    reached = sum(
        1
        for other in pool
        if bands_collide(signature.minhash, other.minhash) or signature.schema & other.schema
    )
    if reached < min(k, len(pool)):
        return (1, len(pool), 1)
    return (1, reached, 0)


def assert_matches_oracle(index, query, k):
    signature = index.query_signature(query)
    before = index.counters.snapshot()
    hits = index.top_k(query, k)
    delta = tuple(a - b for a, b in zip(index.counters.snapshot(), before))
    expected = index.brute_force_top_k(signature, k)
    assert [(hit.content_hash, hit.score.hex()) for hit in hits] == [
        (hit.content_hash, hit.score.hex()) for hit in expected
    ]
    assert all(type(hit.score) is float for hit in hits)
    assert all(hit.record is index._records[hit.content_hash] for hit in hits)
    assert delta == expected_counters(index, signature, k)


operation = st.one_of(
    st.tuples(st.just("add"), st.integers(0, len(SCRIPTS) - 1)),
    st.tuples(st.just("remove"), st.integers(0, 1000)),
    st.tuples(
        st.just("refresh"),
        st.lists(st.integers(0, len(SCRIPTS) - 1), max_size=8, unique=True),
    ),
)
query = st.one_of(
    st.tuples(st.just("pool"), st.integers(0, len(SCRIPTS) - 1)),
    st.tuples(st.just("new"), st.integers(0, len(NEVER_SEEN) - 1)),
    st.tuples(
        st.just("table"), st.lists(st.sampled_from(COLUMNS), max_size=3, unique=True)
    ),
)


def resolve(spec):
    kind, value = spec
    if kind == "pool":
        return SCRIPTS[value]
    if kind == "new":
        return NEVER_SEEN[value]
    return table_signature(value)


class TestTopKOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        operations=st.lists(operation, min_size=1, max_size=20),
        queries=st.lists(query, min_size=1, max_size=4),
    )
    def test_array_top_k_equals_brute_force(self, store, operations, queries):
        """After every add, remove, duplicate admit and refresh, every query
        at k in {1, 3, pool, pool + 5} equals the scalar brute force."""
        index = RetrievalIndex(store=store)
        members = []  # ids added directly (files are tracked by refresh)
        with tempfile.TemporaryDirectory() as directory:
            for kind, value in operations:
                if kind == "add":
                    members.append(index.add_script(SCRIPTS[value]))
                elif kind == "remove" and members:
                    index.remove_script(members.pop(value % len(members)))
                elif kind == "refresh":
                    for name in os.listdir(directory):
                        os.unlink(os.path.join(directory, name))
                    for position in value:
                        with open(os.path.join(directory, f"s{position:02d}.py"), "w") as out:
                            out.write(SCRIPTS[position])
                    index.refresh(directory)
                pool = index.n_unique_scripts
                for spec in queries:
                    for k in sorted({1, 3, max(pool, 1), pool + 5}):
                        assert_matches_oracle(index, resolve(spec), k)
            survivors = index.sources()
            if survivors:
                fresh = RetrievalIndex.from_scripts(survivors, store=store)
                assert retrieval_state(index) == retrieval_state(fresh)

    def test_k_th_score_cuts_through_a_tie(self, store):
        index = RetrievalIndex.from_scripts(SCRIPTS, store=store)
        query = table_signature(["tie.csv"])
        full = index.brute_force_top_k(query, index.n_unique_scripts)
        tied = [hit for hit in full if hit.score == full[0].score]
        assert len(tied) == len(TIE_SCRIPTS)  # six scripts at 0.15
        for k in range(1, len(TIE_SCRIPTS) + 2):
            assert_matches_oracle(index, query, k)
        # script queries whose k-th score is shared with the next script
        positive_cuts = 0
        for script in NEVER_SEEN[-2:] + SCRIPTS[:3]:
            ranking = index.brute_force_top_k(script, index.n_unique_scripts)
            scores = [hit.score for hit in ranking]
            cuts = [k for k in range(1, len(scores)) if scores[k - 1] == scores[k]]
            positive_cuts += sum(scores[k] > 0 for k in cuts[:3])
            for k in cuts[:3]:
                assert_matches_oracle(index, script, k)
        assert positive_cuts  # not only ties among zero scores

    def test_empty_pool_and_empty_minhash_rows(self, store):
        index = RetrievalIndex(store=store)
        assert index.top_k(table_signature(["tie.csv"]), 3) == []
        index.add_script("")  # no statements: an empty minhash row
        index.add_script(SCRIPTS[0])
        # a minhash of zeros must still agree with no value of the empty row
        zeros = ScriptSignature(
            content_hash="",
            minhash=(0,) * NUM_PERM,
            vocab=frozenset(),
            schema=frozenset(),
            groups=(0.0,) * N_PHASES,
        )
        for query in (SCRIPTS[-1], SCRIPTS[0], table_signature([]), zeros):
            for k in (1, 2, 5):
                assert_matches_oracle(index, query, k)


#: Scripts without data-flow edges: as queries RE is undefined, and a
#: pool of nothing else is a corpus without edges.
EDGELESS = ["x = 1", "y = 2\nz = 3", ""]

#: Per dialect: pool scripts, and queries the pool never holds.  The
#: last two queries of each share no edge with any pool script (the ε
#: path: every P coordinate takes the smoothing mass).
TABLEREPORT_POOL = generate_corpus(seed=20, n=24)
SCORE_CASES = {
    "pandas": (
        SCRIPTS + EDGELESS,
        NEVER_SEEN[:6]
        + [
            "import pandas as pd\ndf = pd.read_csv('other.csv')\ndf",
            "a = b.sort_values('c')\nd = a.reset_index()",
        ],
    ),
    "tablereport": (
        TABLEREPORT_POOL + EDGELESS,
        [
            script
            for script in generate_corpus(seed=21, n=10)
            if script not in TABLEREPORT_POOL
        ][:6]
        + [
            "import tablereport as tr\nchip = tr.load_design('other.csv')\n"
            "chip = chip.rotate_rows()\nreport = chip.timing_report()",
            "a = b.rotate_rows()\nc = a.flip_cells()",
        ],
    ),
}


@pytest.fixture(scope="module")
def dialect_stores():
    return {dialect: ScriptStore(dialect=dialect) for dialect in SCORE_CASES}


def score_outcomes(index, query, k, dialect):
    """The pool score of *query* and its two oracles: the score over the
    assembled corpus's vocabulary, and a recount over a vocabulary of
    the brute-force winners (perfbench's gate).  Each is a ``float.hex``
    or the message RE's undefinedness raised."""
    system = LucidScript(index, config=LSConfig(retrieval_k=k, dialect=dialect))
    try:
        outcomes = [system.score(query).hex()]
    except StandardizationError as exc:
        outcomes = [f"error: {exc}"]
    lang = get_dialect(dialect)
    dag = parse_script(query, dialect=lang)
    winners = [
        parse_script(hit.record.source, lemmatized=True, dialect=lang)
        for hit in index.brute_force_top_k(query, k)
    ]
    for vocabulary in (
        index.assemble(query, k).to_vocabulary(),
        CorpusVocabulary(winners),
    ):
        try:
            outcomes.append(RelativeEntropyScorer(vocabulary).score_dag(dag).hex())
        except ValueError as exc:
            outcomes.append(f"error: {exc}")
    return outcomes


def assert_score_matches_oracles(index, query, dialect):
    pool = index.n_unique_scripts
    for k in sorted({1, 3, 20, pool + 5}):
        lean, assembled, recount = score_outcomes(index, query, k, dialect)
        assert lean == assembled == recount, (k, query)


membership = st.lists(
    st.tuples(st.sampled_from(["add", "add", "remove"]), st.integers(0, 1000)),
    min_size=1,
    max_size=16,
)


class TestScoreOracle:
    @settings(max_examples=30, deadline=None)
    @given(
        dialect=st.sampled_from(sorted(SCORE_CASES)),
        operations=membership,
        queries=st.lists(st.integers(0, 1000), min_size=1, max_size=3),
    )
    def test_score_equals_assembled_and_brute_force_recounts(
        self, dialect_stores, dialect, operations, queries
    ):
        """After admits (duplicates included) and removals, in both
        dialects, at k in {1, 3, 20, pool + 5}: pool members, never-seen
        scripts, ε-path and edgeless queries score alike on all three
        paths, or fail with one message."""
        scripts, never_seen = SCORE_CASES[dialect]
        index = RetrievalIndex(store=dialect_stores[dialect])
        members = []
        for kind, value in operations:
            if kind == "add":
                members.append(index.add_script(scripts[value % len(scripts)]))
            elif members:
                index.remove_script(members.pop(value % len(members)))
        if not index.n_unique_scripts:
            return
        candidates = scripts + never_seen
        for value in queries:
            assert_score_matches_oracles(index, candidates[value % len(candidates)], dialect)

    @pytest.mark.parametrize("dialect", sorted(SCORE_CASES))
    def test_queries_no_neighbour_shares_an_edge_with(self, dialect_stores, dialect):
        scripts, never_seen = SCORE_CASES[dialect]
        index = RetrievalIndex.from_scripts(scripts, store=dialect_stores[dialect])
        for query in never_seen[-2:]:
            edges = parse_script(query, dialect=get_dialect(dialect)).edge_counter()
            assert edges
            for k in (1, 3, 20, index.n_unique_scripts + 5):
                hits = index.top_k(query, k)
                assert not any(edge in hit.record.edge_counts for hit in hits for edge in edges)
            assert_score_matches_oracles(index, query, dialect)

    @pytest.mark.parametrize("dialect", sorted(SCORE_CASES))
    def test_undefined_re_fails_alike_on_every_path(self, dialect_stores, dialect):
        scripts, never_seen = SCORE_CASES[dialect]
        store = dialect_stores[dialect]
        index = RetrievalIndex.from_scripts(scripts, store=store)
        for query in EDGELESS:
            for outcome in score_outcomes(index, query, 3, dialect):
                assert outcome == "error: script has no data-flow edges; RE is undefined"
        edgeless = RetrievalIndex.from_scripts(EDGELESS, store=store)
        for query in never_seen[:2] + EDGELESS[:1]:
            for k in (1, 3, 5):
                for outcome in score_outcomes(edgeless, query, k, dialect):
                    assert outcome == "error: corpus has no data-flow edges; RE is undefined"
