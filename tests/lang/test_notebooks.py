"""Tests for notebook-to-script extraction."""

import json

import pytest

from repro.corpus import CorpusIndex, read_corpus_dir
from repro.lang import lemmatize, script_from_notebook


def make_notebook(*cell_sources, cell_type="code"):
    return {
        "cells": [
            {"cell_type": cell_type, "source": source.splitlines(keepends=True)}
            for source in cell_sources
        ],
        "nbformat": 4,
    }


class TestScriptFromNotebook:
    def test_concatenates_code_cells(self):
        nb = make_notebook(
            "import pandas as pd\ndf = pd.read_csv('t.csv')",
            "df = df.dropna()",
        )
        script = script_from_notebook(nb)
        assert script.splitlines() == [
            "import pandas as pd",
            "df = pd.read_csv('t.csv')",
            "df = df.dropna()",
        ]

    def test_markdown_cells_skipped(self):
        nb = make_notebook("x = 1")
        nb["cells"].insert(
            0, {"cell_type": "markdown", "source": ["# My analysis\n"]}
        )
        assert script_from_notebook(nb) == "x = 1"

    def test_magics_dropped(self):
        nb = make_notebook("%matplotlib inline\n!pip install pandas\nx = 1")
        assert script_from_notebook(nb) == "x = 1"

    def test_display_tail_dropped(self):
        nb = make_notebook("df = 1\ndf")
        assert script_from_notebook(nb) == "df = 1"

    def test_head_call_dropped(self):
        nb = make_notebook("import pandas as pd\ndf = pd.read_csv('t.csv')\ndf.head()")
        assert "head" not in script_from_notebook(nb)

    def test_used_head_call_kept(self):
        nb = make_notebook("import pandas as pd\ndf = pd.read_csv('t.csv')\ntop = df.head(5)")
        assert "top = df.head(5)" in script_from_notebook(nb)

    def test_string_source_cells(self):
        nb = {"cells": [{"cell_type": "code", "source": "x = 1\ny = 2"}]}
        assert script_from_notebook(nb) == "x = 1\ny = 2"

    def test_broken_cells_skipped(self):
        nb = make_notebook("x = 1", "this is not python (", "y = 2")
        assert script_from_notebook(nb) == "x = 1\ny = 2"

    def test_no_code_cells_raises(self):
        nb = {"cells": [{"cell_type": "markdown", "source": ["hi"]}]}
        with pytest.raises(ValueError):
            script_from_notebook(nb)

    def test_from_path(self, tmp_path):
        path = tmp_path / "nb.ipynb"
        path.write_text(json.dumps(make_notebook("x = 1")))
        assert script_from_notebook(str(path)) == "x = 1"

    def test_output_is_lemmatizable(self):
        nb = make_notebook(
            "import pandas as pd",
            "%time\ntrain = pd.read_csv('t.csv')\ntrain.head()",
            "train = train.dropna()",
        )
        normalized = lemmatize(script_from_notebook(nb))
        assert "df = df.dropna()" in normalized


class TestDirectoryHelper:
    def test_reads_many_and_skips_bad(self, tmp_path, capsys):
        good = tmp_path / "a.ipynb"
        good.write_text(json.dumps(make_notebook("x = 1")))
        broken = tmp_path / "b.ipynb"
        broken.write_text("{not json")
        codeless = tmp_path / "c.ipynb"
        codeless.write_text(json.dumps({"cells": []}))
        assert read_corpus_dir(str(tmp_path)) == ["x = 1"]
        err = capsys.readouterr().err
        assert "b.ipynb" in err
        assert "c.ipynb: notebook contains no code cells" in err

    def test_only_bad_notebooks_is_an_error(self, tmp_path):
        (tmp_path / "b.ipynb").write_text("{not json")
        with pytest.raises(ValueError, match="no .py or .ipynb scripts"):
            read_corpus_dir(str(tmp_path))


#: JSON documents that parse but are not notebooks.
MALFORMED = {
    "top_level_list": ([1, 2], "notebook must be a JSON object, got list of int"),
    "cell_not_object": ({"cells": [1]}, "cells must be a list of objects, got list of int"),
    "source_not_text": (
        {"cells": [{"cell_type": "code", "source": 5}]},
        "source must be a string or a list of strings, got int",
    ),
}


class TestMalformedNotebooks:
    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_value_error_names_the_shape(self, shape):
        document, message = MALFORMED[shape]
        with pytest.raises(ValueError, match=message):
            script_from_notebook(document)

    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_read_corpus_dir_skips_it(self, tmp_path, capsys, shape):
        (tmp_path / "a.py").write_text("x = 1")
        (tmp_path / "bad.ipynb").write_text(json.dumps(MALFORMED[shape][0]))
        assert read_corpus_dir(str(tmp_path)) == ["x = 1"]
        err = capsys.readouterr().err
        assert "bad.ipynb" in err and MALFORMED[shape][1] in err

    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_refresh_reports_it_failed(self, tmp_path, shape):
        (tmp_path / "a.py").write_text("x = 1")
        (tmp_path / "bad.ipynb").write_text(json.dumps(MALFORMED[shape][0]))
        index = CorpusIndex()
        report = index.refresh(str(tmp_path))
        assert report.failed_paths == ["bad.ipynb"]
        assert index.n_scripts == 1
