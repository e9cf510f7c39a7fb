"""Tests for offline search-space curation (CorpusVocabulary)."""

import pytest

from repro.lang import NGRAM, ONEGRAM, CorpusVocabulary, ScriptError


@pytest.fixture()
def vocab(diabetes_corpus):
    return CorpusVocabulary.from_scripts(diabetes_corpus)


class TestConstruction:
    def test_counts_scripts(self, vocab):
        assert vocab.n_scripts == 3

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            CorpusVocabulary([])

    def test_all_broken_corpus_raises(self):
        with pytest.raises(ScriptError):
            CorpusVocabulary.from_scripts(["def broken(:", "while True: pass"])

    def test_broken_scripts_skipped(self, diabetes_corpus):
        vocab = CorpusVocabulary.from_scripts(diabetes_corpus + ["not valid ("])
        assert vocab.n_scripts == 3

    def test_lemmatization_unifies_variables(self, vocab):
        # corpus uses df and train; after lemmatization the fillna statement
        # should appear once per script
        assert vocab.ngram_counts["df = df.fillna(df.mean())"] == 3


class TestCounts:
    def test_edge_counts_positive(self, vocab):
        assert vocab.total_edges > 0
        assert all(count > 0 for count in vocab.edge_counts.values())

    def test_majority_edge_counted_thrice(self, vocab):
        edge = (
            "df = pd.read_csv('diabetes.csv')",
            "df = df.fillna(df.mean())",
        )
        assert vocab.edge_counts[edge] == 3

    def test_minority_edge_counted_once(self, vocab):
        edge = (
            "df = df.fillna(df.mean())",
            "df = pd.get_dummies(df)",
        )
        assert vocab.edge_counts[edge] == 1

    def test_stats_fields(self, vocab):
        stats = vocab.stats()
        assert stats.n_scripts == 3
        assert stats.uniq_edges == vocab.uniq_edges
        assert stats.avg_code_lines == pytest.approx(14 / 3)
        d = stats.as_dict()
        assert d["Scripts"] == 3


class TestDistribution:
    def test_epsilon_is_half_count(self, vocab):
        assert vocab.epsilon == pytest.approx(0.5 / vocab.total_edges)


class TestStepLookup:
    def test_statement_frequency(self, vocab):
        assert vocab.statement_frequency("df = df.fillna(df.mean())") == 1.0
        assert vocab.statement_frequency("df = df[df['SkinThickness'] < 80]") == pytest.approx(2 / 3)
        assert vocab.statement_frequency("df = df.bogus()") == 0.0

    def test_ngram_successors_ranked(self, vocab):
        successors = vocab.ngram_successors("df = df.fillna(df.mean())")
        assert successors[0][0] == "df = df[df['SkinThickness'] < 80]"
        assert successors[0][1] == 2

    def test_ngram_successors_unknown_is_empty(self, vocab):
        assert vocab.ngram_successors("df = df.bogus()") == []

    def test_render_ngram(self, vocab):
        sig = "df = df.fillna(df.mean())"
        assert vocab.render_statement(NGRAM, sig) == sig

    def test_render_unknown_ngram_is_none(self, vocab):
        assert vocab.render_statement(NGRAM, "df = df.bogus()") is None

    def test_render_onegram_uses_template(self, vocab):
        template = vocab.render_statement(ONEGRAM, "fillna(df,@)")
        assert template == "df = df.fillna(df.mean())"

    def test_render_invalid_gram_raises(self, vocab):
        with pytest.raises(ValueError):
            vocab.render_statement("2-gram", "x")

    def test_relative_positions_in_unit_interval(self, vocab):
        for value in vocab.relative_positions.values():
            assert 0.0 <= value <= 1.0

    def test_read_csv_position_before_get_dummies(self, vocab):
        read = vocab.relative_positions["df = pd.read_csv('diabetes.csv')"]
        encode = vocab.relative_positions["df = pd.get_dummies(df)"]
        assert read < encode
