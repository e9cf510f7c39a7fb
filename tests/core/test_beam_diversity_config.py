"""Tests for the beam search (Algorithms 1-3), diversity clustering, and
the Table 2 parameter defaults."""

import numpy as np
import pytest

from repro.core import (
    BeamSearch,
    LSConfig,
    Transformation,
    cluster_transformations,
    kmeans,
    recommend_parameters,
    transformation_features,
)
from repro.core.entropy import RelativeEntropyScorer
from repro.core.transformations import ADD, DELETE
from repro.lang import NGRAM, CorpusVocabulary, parse_script


@pytest.fixture()
def vocab(diabetes_corpus):
    return CorpusVocabulary.from_scripts(diabetes_corpus)


@pytest.fixture()
def scorer(vocab):
    return RelativeEntropyScorer(vocab)


def make_search(vocab, scorer, diabetes_dir, **config_kwargs):
    defaults = dict(seq=6, beam_size=2, sample_rows=100)
    defaults.update(config_kwargs)
    return BeamSearch(vocab, scorer, LSConfig(**defaults), data_dir=diabetes_dir)


class TestGetSteps:
    def test_ranked_ascending(self, vocab, scorer, diabetes_dir, alex_script):
        search = make_search(vocab, scorer, diabetes_dir)
        statements = parse_script(alex_script).statements
        from repro.core.beam import Candidate

        candidate = Candidate(
            statements=tuple(statements), applied=(), frontier=0,
            score=scorer.score_statements(statements),
        )
        ranked = search.get_steps(candidate)
        scores = [s for _, s in ranked]
        assert scores == sorted(scores)
        assert len(ranked) <= search.config.max_step_candidates

    def test_best_step_improves_score(self, vocab, scorer, diabetes_dir, alex_script):
        search = make_search(vocab, scorer, diabetes_dir)
        statements = parse_script(alex_script).statements
        from repro.core.beam import Candidate

        candidate = Candidate(
            statements=tuple(statements), applied=(), frontier=0,
            score=scorer.score_statements(statements),
        )
        ranked = search.get_steps(candidate)
        assert ranked[0][1] < candidate.score


class TestSearch:
    def test_improves_alex_script(self, vocab, scorer, diabetes_dir, alex_script):
        search = make_search(vocab, scorer, diabetes_dir)
        statements = parse_script(alex_script).statements
        results = search.search(statements)
        assert results[0].score <= scorer.score_statements(statements)

    def test_results_sorted_by_score(self, vocab, scorer, diabetes_dir, alex_script):
        search = make_search(vocab, scorer, diabetes_dir)
        results = search.search(parse_script(alex_script).statements)
        scores = [c.score for c in results]
        assert scores == sorted(scores)

    def test_original_always_in_results(self, vocab, scorer, diabetes_dir, alex_script):
        search = make_search(vocab, scorer, diabetes_dir)
        statements = parse_script(alex_script).statements
        original = "\n".join(s.source for s in statements)
        results = search.search(statements)
        assert any(c.source() == original for c in results)

    def test_seq_bounds_transformation_count(self, vocab, scorer, diabetes_dir, alex_script):
        search = make_search(vocab, scorer, diabetes_dir, seq=3)
        for candidate in search.search(parse_script(alex_script).statements):
            assert candidate.n_transformations <= 3

    def test_early_check_keeps_beams_executable(
        self, vocab, scorer, diabetes_dir, alex_script
    ):
        from repro.sandbox import check_executes

        search = make_search(vocab, scorer, diabetes_dir, early_check=True)
        for candidate in search.search(parse_script(alex_script).statements):
            assert check_executes(candidate.source(), data_dir=diabetes_dir)

    def test_late_check_skips_execution(self, vocab, scorer, diabetes_dir, alex_script):
        search = make_search(vocab, scorer, diabetes_dir, early_check=False)
        search.search(parse_script(alex_script).statements)
        assert search.stats.n_exec_checks == 0

    def test_exec_cache_dedupes(self, vocab, scorer, diabetes_dir, alex_script):
        search = make_search(vocab, scorer, diabetes_dir)
        search.search(parse_script(alex_script).statements)
        assert search.stats.n_exec_checks == len(search._exec_cache)

    def test_larger_beam_never_worse(self, vocab, scorer, diabetes_dir, alex_script):
        statements = parse_script(alex_script).statements
        small = make_search(vocab, scorer, diabetes_dir, beam_size=1, diversity=False)
        big = make_search(vocab, scorer, diabetes_dir, beam_size=3, diversity=False)
        assert big.search(statements)[0].score <= small.search(statements)[0].score + 1e-9

    def test_stats_timings_populated(self, vocab, scorer, diabetes_dir, alex_script):
        search = make_search(vocab, scorer, diabetes_dir)
        search.search(parse_script(alex_script).statements)
        assert search.stats.get_steps_s > 0
        assert search.stats.n_iterations >= 1
        breakdown = search.stats.breakdown()
        assert set(breakdown) >= {
            "GetSteps", "GetTopKBeams", "CheckIfExecutes", "VerifyConstraints"
        }
        # the execution-engine counters ride along in the same breakdown
        assert {"PrefixCacheHitRate", "ExecCacheHitRate"} <= set(
            breakdown
        )

    def test_adds_respect_monotone_frontier(
        self, vocab, scorer, diabetes_dir, alex_script
    ):
        search = make_search(vocab, scorer, diabetes_dir, seq=5)
        for candidate in search.search(parse_script(alex_script).statements):
            frontier = 0
            for t in candidate.applied:
                if t.kind == ADD:
                    assert t.position >= frontier
                    frontier = t.position + 1
                elif t.position < frontier:
                    frontier -= 1

    def test_no_add_delete_oscillation(self, vocab, scorer, diabetes_dir, alex_script):
        search = make_search(vocab, scorer, diabetes_dir, seq=8)
        for candidate in search.search(parse_script(alex_script).statements):
            added = [t.signature for t in candidate.applied if t.kind == ADD]
            deleted = [t.signature for t in candidate.applied if t.kind == DELETE]
            assert not set(added) & set(deleted)


class TestKMeans:
    def test_separates_two_blobs(self):
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(0, 0.1, (20, 2)), rng.normal(5, 0.1, (20, 2))])
        labels = kmeans(X, 2, random_state=0)
        assert len(set(labels[:20])) == 1
        assert len(set(labels[20:])) == 1
        assert labels[0] != labels[-1]

    def test_k_greater_than_n_clamped(self):
        labels = kmeans(np.zeros((3, 2)), 10)
        assert len(labels) == 3

    def test_empty_input(self):
        assert len(kmeans(np.zeros((0, 2)), 3)) == 0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 0)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.normal(0, 1, (30, 4))
        assert np.array_equal(kmeans(X, 3, random_state=5), kmeans(X, 3, random_state=5))


def _t(kind, sig, pos=2):
    source = sig if kind == ADD else None
    return Transformation(
        kind=kind, gram=NGRAM, signature=sig, position=pos, statement_source=source
    )


class TestDiversity:
    def test_features_shape_and_norm(self):
        ts = [_t(ADD, "df = df.fillna(df.mean())"), _t(DELETE, "df = df.dropna()")]
        X = transformation_features(ts, dim=16)
        assert X.shape == (2, 16)
        assert np.allclose(np.linalg.norm(X, axis=1), 1.0)

    def test_similar_transformations_have_close_features(self):
        a = _t(ADD, "df = df.fillna(df.mean())")
        b = _t(ADD, "df = df.fillna(df.median())")
        c = _t(DELETE, "df = df.sort_values('Age')")
        X = transformation_features([a, b, c])
        sim_ab = X[0] @ X[1]
        sim_ac = X[0] @ X[2]
        assert sim_ab > sim_ac

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            transformation_features([_t(DELETE, "x = 1")], dim=1)

    def test_cluster_preserves_all_members(self):
        ts = [_t(ADD, f"df = df.step{i}()") for i in range(9)]
        clusters = cluster_transformations(ts, 3)
        flat = [t for cluster in clusters for t in cluster]
        assert sorted(t.signature for t in flat) == sorted(t.signature for t in ts)

    def test_single_cluster_for_small_input(self):
        ts = [_t(ADD, "df = df.a()"), _t(ADD, "df = df.b()")]
        assert len(cluster_transformations(ts, 5)) == 1

    def test_empty_input(self):
        assert cluster_transformations([], 3) == []

    def test_first_cluster_contains_top_ranked(self):
        ts = [_t(ADD, f"df = df.step{i}()") for i in range(12)]
        clusters = cluster_transformations(ts, 3)
        assert ts[0] in clusters[0]


class TestConfig:
    def test_defaults_match_paper(self):
        config = LSConfig()
        assert config.seq == 16
        assert config.beam_size == 3
        assert config.diversity
        assert config.early_check

    def test_validation(self):
        with pytest.raises(ValueError):
            LSConfig(seq=0)
        with pytest.raises(ValueError):
            LSConfig(beam_size=0)
        with pytest.raises(ValueError):
            LSConfig(diversity_clusters=0)
        with pytest.raises(ValueError):
            LSConfig(max_step_candidates=0)

    INTEGER_FIELDS = [
        "seq", "beam_size", "diversity_clusters", "max_step_candidates",
        "sample_rows", "operation_groups", "random_state", "retrieval_k",
    ]
    NUMBER_FIELDS = ["score_band", "exec_timeout_s", "statement_timeout_s"]
    BOOL_FIELDS = [
        "diversity", "early_check", "verify_scoring", "verify_intent",
        "verify_index", "verify_retrieval", "verify_kernels",
    ]

    @pytest.mark.parametrize("name", INTEGER_FIELDS)
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2"])
    def test_integer_fields_take_integers_not_bools(self, name, value):
        with pytest.raises(TypeError, match=f"{name} must be an integer"):
            LSConfig(**{name: value})

    @pytest.mark.parametrize("name", NUMBER_FIELDS)
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), -float("inf"), 10**400, True, "1"]
    )
    def test_number_fields_take_finite_numbers(self, name, value):
        with pytest.raises(TypeError, match=f"{name} must be a finite number"):
            LSConfig(**{name: value})

    @pytest.mark.parametrize("name", BOOL_FIELDS)
    @pytest.mark.parametrize("value", [0, 1, "yes", None])
    def test_bool_fields_take_bools(self, name, value):
        with pytest.raises(TypeError, match=f"{name} must be a bool"):
            LSConfig(**{name: value})

    def test_every_field_is_type_checked(self):
        from dataclasses import fields

        checked = self.INTEGER_FIELDS + self.NUMBER_FIELDS + self.BOOL_FIELDS
        assert sorted(checked + ["dialect"]) == sorted(f.name for f in fields(LSConfig))
        with pytest.raises(TypeError, match="dialect must be a string"):
            LSConfig(dialect=5)

    def test_well_typed_values_are_kept(self):
        config = LSConfig(score_band=0, exec_timeout_s=3, sample_rows=None,
                          statement_timeout_s=0.5, diversity=False)
        assert (config.score_band, config.exec_timeout_s) == (0, 3)
        assert config.sample_rows is None and config.diversity is False

    def test_clusters_default_to_beam_size(self):
        assert LSConfig(beam_size=4).clusters == 4
        assert LSConfig(beam_size=4, diversity_clusters=2).clusters == 2

    @pytest.mark.parametrize(
        "n_scripts,uniq_edges,seq,k",
        [
            (11, 301, 16, 3),
            (11, 300, 16, 1),
            (10, 301, 8, 3),
            (10, 300, 8, 1),
            (62, 748, 16, 3),   # Titanic row of Table 3
            (24, 193, 16, 1),   # NLP row of Table 3
        ],
    )
    def test_table2_parameterization(self, n_scripts, uniq_edges, seq, k):
        config = recommend_parameters(n_scripts, uniq_edges)
        assert config.seq == seq
        assert config.beam_size == k

    def test_negative_stats_rejected(self):
        with pytest.raises(ValueError):
            recommend_parameters(-1, 10)
