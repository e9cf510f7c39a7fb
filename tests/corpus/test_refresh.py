"""Tests for the refresh protocol: manifest staleness and reparse counts."""

import json
import os
import shutil

import pytest

from repro.corpus import CorpusIndex, load_index, read_corpus_dir, save_index
from repro.lang import lemmatize


@pytest.fixture()
def corpus_dir(tmp_path, diabetes_corpus):
    d = tmp_path / "corpus"
    d.mkdir()
    for position, script in enumerate(diabetes_corpus):
        (d / f"peer_{position}.py").write_text(script + "\n")
    return str(d)


class TestRefresh:
    def test_initial_build(self, corpus_dir):
        index = CorpusIndex()
        report = index.refresh(corpus_dir)
        assert report.added == 3
        assert report.scanned == 3
        assert index.n_scripts == 3

    def test_noop_refresh_never_reads_files(self, corpus_dir):
        index = CorpusIndex()
        index.refresh(corpus_dir)
        report = index.refresh()  # corpus_dir remembered
        assert report.unchanged_stat == 3
        assert report.reparsed == 0
        assert report.added == report.changed == report.removed == 0

    def test_one_changed_file_reparses_exactly_one(self, corpus_dir, alex_script):
        index = CorpusIndex()
        index.refresh(corpus_dir)
        path = os.path.join(corpus_dir, "peer_1.py")
        with open(path, "w") as handle:
            handle.write(alex_script + "\n")
        report = index.refresh()
        assert report.changed == 1
        assert report.reparsed == 1
        assert report.unchanged_stat == 2
        index.verify()

    def test_touched_but_identical_file_is_not_parsed(self, corpus_dir):
        index = CorpusIndex()
        index.refresh(corpus_dir)
        path = os.path.join(corpus_dir, "peer_0.py")
        os.utime(path, ns=(1, 1))  # mtime change, same bytes
        report = index.refresh()
        assert report.unchanged_hash == 1
        assert report.reparsed == 0
        # the manifest learned the new stat signature
        assert index.refresh().unchanged_stat == 3

    def test_removed_file_leaves_the_index(self, corpus_dir):
        index = CorpusIndex()
        index.refresh(corpus_dir)
        os.remove(os.path.join(corpus_dir, "peer_2.py"))
        report = index.refresh()
        assert report.removed == 1
        assert index.n_scripts == 2
        index.verify()

    def test_notebook_files_are_flattened(self, corpus_dir, alex_script):
        nb = {"cells": [{"cell_type": "code",
                         "source": alex_script.splitlines(keepends=True)}]}
        with open(os.path.join(corpus_dir, "extra.ipynb"), "w") as handle:
            json.dump(nb, handle)
        index = CorpusIndex()
        report = index.refresh(corpus_dir)
        assert report.added == 4
        assert index.n_scripts == 4
        index.verify()

    def test_broken_notebook_reported_not_fatal(self, corpus_dir):
        with open(os.path.join(corpus_dir, "bad.ipynb"), "w") as handle:
            handle.write("{not json")
        index = CorpusIndex()
        report = index.refresh(corpus_dir)
        assert report.failed == 1
        assert report.failed_paths == ["bad.ipynb"]
        assert index.n_scripts == 3

    def test_unparseable_python_reported_not_fatal(self, corpus_dir):
        with open(os.path.join(corpus_dir, "broken.py"), "w") as handle:
            handle.write("def broken(:\n")
        index = CorpusIndex()
        report = index.refresh(corpus_dir)
        assert report.failed == 1
        assert "broken.py" in report.failed_paths
        # a failed file stays in the manifest, so an unchanged rescan
        # does not retry it
        assert index.refresh().failed == 0

    def test_refresh_without_directory_raises(self):
        with pytest.raises(ValueError):
            CorpusIndex().refresh()

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(ValueError):
            CorpusIndex().refresh(str(tmp_path / "nope"))

    def test_report_as_dict_keys(self, corpus_dir):
        report = CorpusIndex().refresh(corpus_dir)
        payload = report.as_dict()
        assert payload["added"] == 3
        assert set(payload) == {
            "scanned", "added", "changed", "removed",
            "unchanged_stat", "unchanged_hash", "failed", "reparsed",
        }


class TestDuplicateFiles:
    """One member per distinct file content, the rule read_corpus_dir applies."""

    @staticmethod
    def _copy(corpus_dir, source, target):
        shutil.copy(os.path.join(corpus_dir, source), os.path.join(corpus_dir, target))

    @staticmethod
    def _matches_directory(index, corpus_dir):
        index.verify()
        assert index.sources() == [lemmatize(s) for s in read_corpus_dir(corpus_dir)]

    def test_later_copy_is_skipped_and_reported(self, corpus_dir, capsys):
        self._copy(corpus_dir, "peer_0.py", "peer_9.py")
        index = CorpusIndex()
        report = index.refresh(corpus_dir)
        assert report.duplicate_paths == ["peer_9.py"]
        assert report.added == 4 and report.failed == 0
        assert index.n_scripts == 3
        self._matches_directory(index, corpus_dir)
        assert "peer_9.py: byte-identical to" in capsys.readouterr().err

    def test_copy_with_other_line_endings_is_a_duplicate(self, corpus_dir):
        with open(os.path.join(corpus_dir, "peer_0.py"), "rb") as handle:
            crlf = handle.read().replace(b"\n", b"\r\n")
        with open(os.path.join(corpus_dir, "peer_9.py"), "wb") as handle:
            handle.write(crlf)
        index = CorpusIndex()
        assert index.refresh(corpus_dir).duplicate_paths == ["peer_9.py"]
        self._matches_directory(index, corpus_dir)

    def test_deleting_the_first_copy_admits_the_next(self, corpus_dir):
        self._copy(corpus_dir, "peer_0.py", "peer_9.py")
        index = CorpusIndex()
        index.refresh(corpus_dir)
        os.remove(os.path.join(corpus_dir, "peer_0.py"))
        report = index.refresh()
        assert report.removed == 1
        assert report.duplicate_paths == []
        assert index.n_scripts == 3
        assert sorted(index.sources()) == sorted(
            lemmatize(s) for s in read_corpus_dir(corpus_dir)
        )
        again = index.refresh()
        assert again.unchanged_stat == 3 and again.reparsed == 0
        assert index.n_scripts == 3

    def test_changing_the_first_copy_admits_the_next(self, corpus_dir, alex_script):
        self._copy(corpus_dir, "peer_1.py", "peer_9.py")
        index = CorpusIndex()
        index.refresh(corpus_dir)
        with open(os.path.join(corpus_dir, "peer_1.py"), "w") as handle:
            handle.write(alex_script + "\n")
        index.refresh()
        assert index.n_scripts == 4
        assert sorted(index.sources()) == sorted(
            lemmatize(s) for s in read_corpus_dir(corpus_dir)
        )

    def test_new_earlier_copy_replaces_the_member(self, corpus_dir):
        index = CorpusIndex()
        index.refresh(corpus_dir)
        self._copy(corpus_dir, "peer_2.py", "a_copy.py")
        report = index.refresh()
        assert report.duplicate_paths == ["peer_2.py"]
        assert index.n_scripts == 3
        index.verify()

    def test_snapshot_that_admitted_a_copy_is_corrected(self, corpus_dir, tmp_path):
        self._copy(corpus_dir, "peer_0.py", "peer_9.py")
        index = CorpusIndex()
        index.refresh(corpus_dir)
        # admit the copy, as refresh did before the duplicate rule
        with open(os.path.join(corpus_dir, "peer_9.py")) as handle:
            index._files["peer_9.py"].script_id = index.add_script(handle.read())
        snapshot = str(tmp_path / "old.json")
        save_index(index, snapshot)
        stale = load_index(snapshot)
        assert stale.n_scripts == 4
        report = stale.refresh()
        assert report.duplicate_paths == ["peer_9.py"]
        assert report.reparsed == 0
        assert stale.n_scripts == 3
        stale.verify()
