"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def corpus_dir(tmp_path, diabetes_corpus):
    d = tmp_path / "corpus"
    d.mkdir()
    for position, script in enumerate(diabetes_corpus):
        (d / f"peer_{position}.py").write_text(script + "\n")
    return str(d)


@pytest.fixture()
def script_path(tmp_path, alex_script):
    path = tmp_path / "user.py"
    path.write_text(alex_script + "\n")
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_standardize_args(self):
        args = build_parser().parse_args(
            ["standardize", "--script", "s.py", "--corpus-dir", "c/",
             "--data-dir", "d/", "--tau-j", "0.8", "--seq", "4"]
        )
        assert args.command == "standardize"
        assert args.tau_j == 0.8
        assert args.seq == 4

    def test_build_workload_validates_name(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build-workload", "bogus", "--out", "x"])

    def test_serve_has_no_wave_limit(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--socket", "s", "--wave-limit", "4"])
        assert excinfo.value.code == 2  # argparse's usage error


class TestScore:
    def test_prints_re(self, corpus_dir, script_path, capsys):
        code = main(["score", "--script", script_path, "--corpus-dir", corpus_dir])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert float(out) > 0

    def test_empty_corpus_dir_exits(self, tmp_path, script_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit):
            main(["score", "--script", script_path, "--corpus-dir", str(empty)])


class TestStandardize:
    def test_end_to_end(self, corpus_dir, script_path, diabetes_dir, tmp_path, capsys):
        out_path = str(tmp_path / "out.py")
        code = main(
            ["standardize", "--script", script_path, "--corpus-dir", corpus_dir,
             "--data-dir", diabetes_dir, "--tau-j", "0.5",
             "--seq", "6", "--beam-size", "2", "--sample-rows", "120",
             "--output", out_path]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "read_csv" in printed
        assert os.path.exists(out_path)
        with open(out_path) as handle:
            assert "import pandas as pd" in handle.read()

    def test_broken_input_fails_cleanly(self, corpus_dir, tmp_path, diabetes_dir, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import pandas as pd\ndf = pd.read_csv('nope.csv')\n")
        code = main(
            ["standardize", "--script", str(bad), "--corpus-dir", corpus_dir,
             "--data-dir", diabetes_dir, "--seq", "2"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err


class TestExplain:
    def test_prints_rationales(self, corpus_dir, script_path, diabetes_dir, capsys):
        code = main(
            ["explain", "--script", script_path, "--corpus-dir", corpus_dir,
             "--data-dir", diabetes_dir, "--tau-j", "0.5",
             "--seq", "6", "--beam-size", "2", "--sample-rows", "120"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "corpus prevalence" in out or "already standard" in out


class TestBuildWorkload:
    def test_materializes_competition(self, tmp_path, capsys):
        code = main(
            ["build-workload", "medical", "--out", str(tmp_path),
             "--n-scripts", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "train.csv" in out
        scripts_dir = tmp_path / "medical" / "scripts"
        assert len(list(scripts_dir.glob("*.py"))) == 4


class TestDetectLeakage:
    def test_flags_removed_steps(self, corpus_dir, tmp_path, diabetes_dir, capsys):
        leaky = tmp_path / "leaky.py"
        leaky.write_text(
            "import pandas as pd\n"
            "df = pd.read_csv('diabetes.csv')\n"
            "df = df.fillna(df.mean())\n"
            "df['Outcome_copy'] = df['Outcome']\n"
        )
        code = main(
            ["detect-leakage", "--script", str(leaky), "--corpus-dir", corpus_dir,
             "--data-dir", diabetes_dir, "--tau-j", "0.5",
             "--seq", "6", "--beam-size", "2", "--sample-rows", "120"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Outcome_copy" in out or "no out-of-the-ordinary" in out


class TestCurate:
    def test_writes_vocabulary_json(self, corpus_dir, tmp_path, capsys):
        out = str(tmp_path / "vocab.json")
        code = main(["curate", "--corpus-dir", corpus_dir, "--out", out])
        assert code == 0
        assert "curated 3 scripts" in capsys.readouterr().out

        from repro.lang import load_vocabulary

        vocabulary = load_vocabulary(out)
        assert vocabulary.n_scripts == 3
        assert vocabulary.total_edges > 0


class TestCorpusWarnings:
    def test_duplicate_scripts_skipped_with_warning(
        self, corpus_dir, script_path, capsys
    ):
        import shutil

        shutil.copy(
            os.path.join(corpus_dir, "peer_0.py"),
            os.path.join(corpus_dir, "zz_copy.py"),
        )
        code = main(["score", "--script", script_path, "--corpus-dir", corpus_dir])
        assert code == 0
        err = capsys.readouterr().err
        assert "byte-identical to" in err
        assert "zz_copy.py" in err
        assert "double-count" in err

    def test_broken_notebook_names_the_file(self, corpus_dir, script_path, capsys):
        with open(os.path.join(corpus_dir, "corrupt.ipynb"), "w") as handle:
            handle.write("{not json")
        code = main(["score", "--script", script_path, "--corpus-dir", corpus_dir])
        assert code == 0  # one corrupt notebook does not abort the load
        err = capsys.readouterr().err
        assert "warning: skipping notebook" in err
        assert "corrupt.ipynb" in err


class TestIndexCommands:
    def test_build_then_stats(self, corpus_dir, tmp_path, capsys):
        snapshot = str(tmp_path / "index.json")
        assert main(["index", "build", "--corpus-dir", corpus_dir,
                     "--out", snapshot]) == 0
        assert "indexed 3 scripts" in capsys.readouterr().out
        assert main(["index", "stats", "--index", snapshot, "--audit"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical to a cold rebuild" in out
        assert "scripts: 3" in out

    def test_update_reparses_only_changes(self, corpus_dir, tmp_path,
                                          alex_script, capsys):
        snapshot = str(tmp_path / "index.json")
        main(["index", "build", "--corpus-dir", corpus_dir, "--out", snapshot])
        capsys.readouterr()
        assert main(["index", "update", "--index", snapshot, "--audit"]) == 0
        assert "reparsed=0" in capsys.readouterr().out
        with open(os.path.join(corpus_dir, "peer_1.py"), "w") as handle:
            handle.write(alex_script + "\n")
        assert main(["index", "update", "--index", snapshot, "--audit"]) == 0
        out = capsys.readouterr().out
        assert "changed=1" in out
        assert "reparsed=1" in out

    def test_build_empty_dir_exits(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit):
            main(["index", "build", "--corpus-dir", str(empty),
                  "--out", str(tmp_path / "index.json")])

    def test_score_accepts_index(self, corpus_dir, script_path, tmp_path, capsys):
        snapshot = str(tmp_path / "index.json")
        main(["index", "build", "--corpus-dir", corpus_dir, "--out", snapshot])
        capsys.readouterr()
        code = main(["score", "--script", script_path, "--index", snapshot])
        assert code == 0
        with_index = float(capsys.readouterr().out.strip())
        main(["score", "--script", script_path, "--corpus-dir", corpus_dir])
        without_index = float(capsys.readouterr().out.strip())
        assert with_index == without_index

    def test_score_requires_a_corpus_source(self, script_path):
        with pytest.raises(SystemExit, match="corpus-dir or --index"):
            main(["score", "--script", script_path])


class TestNotebookCorpus:
    def test_corpus_dir_accepts_notebooks(self, tmp_path, diabetes_corpus, alex_script, capsys):
        import json

        d = tmp_path / "nbcorpus"
        d.mkdir()
        for position, script in enumerate(diabetes_corpus):
            nb = {
                "cells": [
                    {"cell_type": "code", "source": script.splitlines(keepends=True)}
                ]
            }
            (d / f"peer_{position}.ipynb").write_text(json.dumps(nb))
        user = tmp_path / "user.py"
        user.write_text(alex_script + "\n")
        code = main(["score", "--script", str(user), "--corpus-dir", str(d)])
        assert code == 0
        assert float(capsys.readouterr().out.strip()) > 0


class TestReadCorpusOrdering:
    def test_sorted_by_filename_regardless_of_creation_order(self, tmp_path):
        """Corpus order must be stable across filesystems: sorted by name."""
        import random

        from repro.corpus import read_corpus_dir

        d = tmp_path / "shuffled"
        d.mkdir()
        names = [f"peer_{i:02d}.py" for i in range(8)]
        shuffled = list(names)
        random.Random(3).shuffle(shuffled)
        for name in shuffled:  # create in shuffled order
            (d / name).write_text(
                f"import pandas as pd\ndf = pd.read_csv('{name}.csv')\ndf\n"
            )
        scripts = read_corpus_dir(str(d))
        expected = [
            f"import pandas as pd\ndf = pd.read_csv('{name}.csv')\ndf\n"
            for name in sorted(names)
        ]
        assert scripts == expected


class TestIndexRetrieveCommand:
    def test_prints_ranked_hits(self, corpus_dir, script_path, capsys):
        code = main(
            [
                "index", "retrieve",
                "--corpus-dir", corpus_dir,
                "--script", script_path,
                "-k", "2",
                "--verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert lines[0].startswith("pool [pandas]:")
        assert "[audited]" in lines[0]
        assert len(lines) == 3  # header + 2 hits
        assert lines[1].lstrip().startswith("1 ")

    def test_persists_and_reloads_pool_snapshot(
        self, corpus_dir, script_path, tmp_path, capsys
    ):
        snapshot = str(tmp_path / "pool.retr.json")
        assert (
            main(
                [
                    "index", "retrieve",
                    "--corpus-dir", corpus_dir,
                    "--script", script_path,
                    "-k", "2",
                    "--out", snapshot,
                ]
            )
            == 0
        )
        first = capsys.readouterr().out
        assert (
            main(["index", "retrieve", "--index", snapshot,
                  "--script", script_path, "-k", "2"])
            == 0
        )
        second = capsys.readouterr().out
        hits = lambda text: [  # noqa: E731
            line for line in text.splitlines() if line.lstrip()[:1].isdigit()
        ]
        assert hits(first) == hits(second)

    def test_requires_a_pool(self, script_path):
        with pytest.raises(SystemExit):
            main(["index", "retrieve", "--script", script_path])


class TestRetrieveKFlag:
    def test_score_with_retrieve_k_matches_plain_corpus(
        self, tmp_path, script_path, diabetes_corpus, capsys
    ):
        # a duplicate-free pool: retrieval works over unique records, so
        # parity with the plain directory corpus needs distinct lemmas
        # (diabetes peers 0 and 1 lemmatize identically)
        d = tmp_path / "unique"
        d.mkdir()
        for position, script in enumerate(diabetes_corpus[1:]):
            (d / f"peer_{position}.py").write_text(script + "\n")
        corpus_dir = str(d)
        assert main(["score", "--script", script_path, "--corpus-dir", corpus_dir]) == 0
        plain = capsys.readouterr().out
        assert (
            main(
                [
                    "score", "--script", script_path, "--corpus-dir", corpus_dir,
                    "--retrieve-k", "3", "--verify-retrieval",
                ]
            )
            == 0
        )
        retrieved = capsys.readouterr().out
        # k >= pool size: the retrieved corpus is the whole pool, and the
        # score is identical to curating the directory directly
        assert retrieved == plain

    def test_standardize_with_retrieve_k(
        self, corpus_dir, script_path, diabetes_dir, capsys
    ):
        code = main(
            [
                "standardize",
                "--script", script_path,
                "--corpus-dir", corpus_dir,
                "--data-dir", diabetes_dir,
                "--retrieve-k", "2",
            ]
        )
        assert code == 0
        assert "df" in capsys.readouterr().out
