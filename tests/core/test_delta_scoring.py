"""Bit-identity of the O(Δ) incremental scoring engine.

GetSteps scores every proposal through the delta engine, so it must
match the full recount (``BeamSearch._projected_score``, the oracle)
*bit for bit*, not approximately: every delta score equals the recount,
and a whole beam search under ``LSConfig.audit`` compares every score
against the recount.  The search recounts each candidate it visits once
(``SearchStats.n_full_recounts``) and scores its proposals off that.
"""

import random

import pytest

from repro.core import AuditMismatchError, BeamSearch, LSConfig, RelativeEntropyScorer
from repro.core.entropy import REStats
from repro.lang import CorpusVocabulary, EdgeState, parse_script
from repro.lang.parser import Statement, compute_edge_counts

STEP_POOL = [
    "df = df.fillna(df.mean())",
    "df = df.fillna(df.median())",
    "df = df.dropna()",
    "df = df[df['x'] < 80]",
    "df = pd.get_dummies(df)",
    "df['y'] = df['x'] * 2",
    "df = df.drop('z', axis=1)",
    "df = df.sort_values('x')",
    "s = df['x'].sum()",
    "df2 = df.copy()",
    "df = df2.rename(columns={'a': 'b'})",
]


def build_script(body):
    return "\n".join(["import pandas as pd", "df = pd.read_csv('t.csv')"] + body)


def spliced(state, position, stmt=None):
    """*state*'s statements with the one at *position* deleted, or with
    *stmt* inserted there."""
    statements = list(state.statements)
    if stmt is None:
        del statements[position]
    else:
        statements.insert(position, stmt)
    return statements


@pytest.fixture()
def scorer():
    rng = random.Random(99)
    corpus = [
        build_script([rng.choice(STEP_POOL) for _ in range(rng.randint(2, 6))])
        for _ in range(8)
    ]
    return RelativeEntropyScorer(CorpusVocabulary.from_scripts(corpus))


# ------------------------------------------------------------- stats layer
def test_stats_roundtrip_scores_like_score_edge_counts(scorer):
    statements = parse_script(build_script(STEP_POOL[:5])).statements
    counts = compute_edge_counts(statements)
    stats = scorer.stats_from_counts(counts)
    assert scorer.score_stats(stats) == scorer.score_edge_counts(counts)


def test_score_delta_bit_identical_over_random_walk(scorer):
    """Delta scores equal from-scratch scores exactly, including the
    ε-floor for edges the corpus never saw, over hundreds of splices.
    Each spliced state is rebuilt from scratch, as the search rebuilds
    every candidate it visits."""
    for seed in range(6):
        rng = random.Random(seed)
        state = EdgeState.from_statements(
            parse_script(build_script(rng.sample(STEP_POOL, 4))).statements
        )
        stats = scorer.stats_from_counts(state.counts)
        for _ in range(150):
            n = len(state)
            if n > 1 and (n >= 14 or rng.random() < 0.5):
                position = rng.randrange(n)
                delta = state.delta_delete(position)
                statements = spliced(state, position)
            else:
                position = rng.randrange(n + 1)
                stmt = Statement.from_source(0, rng.choice(STEP_POOL))
                delta = state.delta_insert(position, stmt)
                statements = spliced(state, position, stmt)
            expected_counts = compute_edge_counts(statements)
            try:
                expected = scorer.score_edge_counts(expected_counts)
            except ValueError:
                with pytest.raises(ValueError):
                    scorer.score_delta(stats, state.counts, delta)
            else:
                got = scorer.score_delta(stats, state.counts, delta)
                assert got == expected  # bit-for-bit, not approx
            state = EdgeState.from_statements(statements)
            assert state.counts == expected_counts
            stats = scorer.stats_from_counts(state.counts)


def test_score_delta_on_unseen_edges_uses_epsilon_floor(scorer):
    """Inserting a statement whose edges the corpus lacks must hit the
    same ε term the full path uses — exactly."""
    statements = parse_script(
        build_script(["df = df.interpolate().clip(lower=0)"])
    ).statements
    state = EdgeState.from_statements(statements)
    stats = scorer.stats_from_counts(state.counts)
    novel = Statement.from_source(0, "df = df.interpolate().clip(lower=0)")
    delta = state.delta_insert(len(state), novel)
    expected = scorer.score_edge_counts(
        compute_edge_counts(spliced(state, len(state), novel))
    )
    assert scorer.score_delta(stats, state.counts, delta) == expected


def test_delete_to_no_edges_raises_value_error_like_full_path(scorer):
    statements = parse_script("x = 1\ny = x + 1").statements
    state = EdgeState.from_statements(statements)
    stats = scorer.stats_from_counts(state.counts)
    delta = state.delta_delete(1)  # drop the only edge-bearing statement
    remaining = compute_edge_counts(spliced(state, 1))
    with pytest.raises(ValueError):
        scorer.score_edge_counts(remaining)
    with pytest.raises(ValueError):
        scorer.score_delta(stats, state.counts, delta)


def test_negative_delta_beyond_base_counts_raises(scorer):
    stats = REStats(total=1, count_hist={1: 1}, q_hist={-1.0: 1})
    with pytest.raises(ValueError):
        scorer.score_delta(stats, {("a", "b"): 1}, {("a", "b"): -2})


# ------------------------------------------------------------- beam search
def _run_search(corpus, user_script, **config_kwargs):
    vocab = CorpusVocabulary.from_scripts(corpus)
    scorer = RelativeEntropyScorer(vocab)
    config = LSConfig(seq=4, beam_size=3, **config_kwargs)
    search = BeamSearch(vocab, scorer, config, exec_checker=lambda s: True)
    statements = list(parse_script(user_script).statements)
    result = search.search(statements)
    search.sync_cache_stats()
    return [(c.source(), c.score) for c in result], search.stats


@pytest.fixture()
def workload():
    rng = random.Random(3)
    corpus = [
        build_script([rng.choice(STEP_POOL) for _ in range(rng.randint(2, 6))])
        for _ in range(10)
    ]
    user = build_script([rng.choice(STEP_POOL) for _ in range(12)])
    return corpus, user


def test_verify_scoring_mode_runs_clean_and_reports_speedup(workload):
    """The cross-check mode recomputes every score by full recount and
    must never trip its own mismatch alarm on a healthy engine."""
    corpus, user = workload
    verified, stats = _run_search(corpus, user, audit=True)
    plain, plain_stats = _run_search(corpus, user)
    assert verified == plain  # same candidates, same order, same scores
    assert stats.n_delta_scores == plain_stats.n_delta_scores > 0
    assert stats.n_full_recounts == plain_stats.n_full_recounts >= 1


@pytest.mark.parametrize("beam_size, diversity", [(1, False), (3, True)])
def test_one_full_recount_per_visited_candidate(workload, monkeypatch, beam_size, diversity):
    """Each GetSteps call recounts its candidate once and scores every
    proposal as a delta off that; at Table 2's K=1 and at the default
    K=3 with diversity, recounts equal GetSteps calls, never proposals."""
    corpus, user = workload
    visits = []
    real = BeamSearch.get_steps

    def get_steps(self, candidate):
        visits.append(candidate.source())
        return real(self, candidate)

    monkeypatch.setattr(BeamSearch, "get_steps", get_steps)
    vocab = CorpusVocabulary.from_scripts(corpus)
    config = LSConfig(seq=6, beam_size=beam_size, diversity=diversity)
    search = BeamSearch(
        vocab, RelativeEntropyScorer(vocab), config, exec_checker=lambda s: True
    )
    search.search(list(parse_script(user).statements))
    assert search.stats.n_full_recounts == len(visits) > 1
    assert search.stats.n_delta_scores > search.stats.n_full_recounts


def test_verify_scoring_detects_a_corrupted_delta(workload):
    corpus, user = workload
    vocab = CorpusVocabulary.from_scripts(corpus)
    scorer = RelativeEntropyScorer(vocab)
    config = LSConfig(seq=2, beam_size=1, audit=True)
    search = BeamSearch(vocab, scorer, config, exec_checker=lambda s: True)
    original = scorer.score_delta
    scorer.score_delta = lambda *a, **k: original(*a, **k) + 1e-9  # corrupt
    with pytest.raises(AuditMismatchError) as caught:
        search.search(list(parse_script(user).statements))
    assert caught.value.layer == "scoring"
