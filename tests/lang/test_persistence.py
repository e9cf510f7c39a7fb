"""The persisted search space: the snapshot ``repro index build`` writes.

``load_index`` reads it back without reparsing, and its vocabulary (the
one the online phase runs on) answers every query a from-scratch
curation of the same scripts answers.
"""

import json

import pytest

from repro.cli import main
from repro.core import LucidScript
from repro.corpus import CorpusIndex, index_from_dict, index_to_dict, load_index
from repro.lang import CorpusVocabulary


@pytest.fixture()
def vocab(diabetes_corpus):
    return CorpusVocabulary.from_scripts(diabetes_corpus)


@pytest.fixture()
def snapshot(tmp_path, diabetes_corpus, capsys):
    """Path of ``repro index build``'s snapshot of the diabetes corpus."""
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    for position, script in enumerate(diabetes_corpus):
        (corpus_dir / f"peer_{position}.py").write_text(script + "\n")
    path = str(tmp_path / "index.json")
    assert main(["index", "build", "--corpus-dir", str(corpus_dir), "--out", path]) == 0
    capsys.readouterr()
    return path


def restore(path):
    return load_index(path).to_vocabulary()


def snapshot_payload(path):
    with open(path) as handle:
        return json.load(handle)


class TestRoundtrip:
    def test_edge_counts_preserved(self, vocab, snapshot):
        restored = restore(snapshot)
        assert restored.edge_counts == vocab.edge_counts
        assert restored.total_edges == vocab.total_edges

    def test_atom_counts_preserved(self, vocab, snapshot):
        restored = restore(snapshot)
        assert restored.onegram_counts == vocab.onegram_counts
        assert restored.ngram_counts == vocab.ngram_counts

    def test_stats_preserved(self, vocab, snapshot):
        restored = restore(snapshot)
        assert restored.stats() == vocab.stats()
        assert restored.n_scripts == vocab.n_scripts == 3

    def test_successors_preserved(self, vocab, snapshot):
        restored = restore(snapshot)
        key = "df = df.fillna(df.mean())"
        assert restored.ngram_successors(key) == vocab.ngram_successors(key)

    def test_statement_frequency_preserved(self, vocab, snapshot):
        restored = restore(snapshot)
        sig = "df = df[df['SkinThickness'] < 80]"
        assert restored.statement_frequency(sig) == vocab.statement_frequency(sig)
        assert restored.statement_frequency("df = df.bogus()") == 0.0

    def test_templates_and_positions_preserved(self, vocab, snapshot):
        restored = restore(snapshot)
        assert restored.onegram_templates == vocab.onegram_templates
        assert restored.relative_positions == vocab.relative_positions

    def test_scoring_identical_after_restore(
        self, snapshot, diabetes_corpus, alex_script
    ):
        from_snapshot = LucidScript(load_index(snapshot)).score(alex_script)
        assert from_snapshot == LucidScript(diabetes_corpus).score(alex_script)

    def test_file_is_json(self, snapshot):
        payload = snapshot_payload(snapshot)
        assert payload["format_version"] == 1
        assert len(payload["members"]) == 3

    def test_dict_roundtrip_without_disk(self, vocab, diabetes_corpus):
        index = CorpusIndex.from_scripts(diabetes_corpus)
        restored = index_from_dict(index_to_dict(index)).to_vocabulary()
        assert restored.edge_counts == vocab.edge_counts

    def test_wrong_version_rejected(self, snapshot):
        payload = snapshot_payload(snapshot)
        payload["format_version"] = 99
        with pytest.raises(ValueError):
            index_from_dict(payload)

    def test_newer_version_names_the_remedy(self, snapshot):
        # a snapshot from a future release is distinguished from junk:
        # the error says the file is newer and how to proceed
        payload = snapshot_payload(snapshot)
        payload["format_version"] = 2
        with pytest.raises(ValueError, match="newer than the supported"):
            index_from_dict(payload)
        with pytest.raises(ValueError, match="rebuild the snapshot"):
            index_from_dict(payload)

    def test_non_integer_version_rejected(self, snapshot):
        payload = snapshot_payload(snapshot)
        payload["format_version"] = "v1"
        with pytest.raises(ValueError, match="unsupported"):
            index_from_dict(payload)

    def test_epsilon_preserved(self, vocab, snapshot):
        assert restore(snapshot).epsilon == vocab.epsilon
