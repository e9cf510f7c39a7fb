"""Cross-cutting edge cases: multi-file scripts, degenerate corpora,
adversarial candidates."""

import numpy as np
import pytest

import repro.minipandas as mp
from repro.core import LSConfig, LucidScript, StandardizationError, TableJaccardIntent
from repro.lang import CorpusVocabulary, lemmatize, parse_script
from repro.sandbox import run_script


class TestMultiFileScripts:
    @pytest.fixture()
    def two_file_dir(self, tmp_path):
        mp.DataFrame({"id": [1, 2, 3], "x": [1.0, 2.0, 3.0]}).to_csv(
            str(tmp_path / "train.csv")
        )
        mp.DataFrame({"id": [1, 2], "extra": ["a", "b"]}).to_csv(
            str(tmp_path / "meta.csv")
        )
        return str(tmp_path)

    def test_lemmatize_two_files(self):
        script = (
            "import pandas as pd\n"
            "train = pd.read_csv('train.csv')\n"
            "meta = pd.read_csv('meta.csv')\n"
            "train = train.merge(meta, on='id')"
        )
        out = lemmatize(script)
        assert "df = pd.read_csv('train.csv')" in out
        assert "df2 = pd.read_csv('meta.csv')" in out
        assert "df = df.merge(df2, on='id')" in out

    def test_two_file_script_executes(self, two_file_dir):
        script = (
            "import pandas as pd\n"
            "df = pd.read_csv('train.csv')\n"
            "df2 = pd.read_csv('meta.csv')\n"
            "df = df.merge(df2, on='id')"
        )
        result = run_script(script, data_dir=two_file_dir)
        assert result.ok
        assert result.output.shape == (2, 3)

    def test_standardize_two_file_script(self, two_file_dir):
        corpus = [
            "import pandas as pd\n"
            "df = pd.read_csv('train.csv')\n"
            "meta = pd.read_csv('meta.csv')\n"
            "df = df.merge(meta, on='id')\n"
            "df = df.dropna()",
        ] * 2
        system = LucidScript(
            corpus,
            data_dir=two_file_dir,
            intent=TableJaccardIntent(tau=0.5),
            config=LSConfig(seq=4, beam_size=1, sample_rows=100),
        )
        result = system.standardize(
            "import pandas as pd\n"
            "a = pd.read_csv('train.csv')\n"
            "b = pd.read_csv('meta.csv')\n"
            "a = a.merge(b, on='id')"
        )
        assert result.improvement >= 0.0


class TestDegenerateCorpora:
    def test_single_script_corpus(self, diabetes_corpus, diabetes_dir, alex_script):
        system = LucidScript(
            diabetes_corpus[:1],
            data_dir=diabetes_dir,
            intent=TableJaccardIntent(tau=0.5),
            config=LSConfig(seq=4, beam_size=1, sample_rows=100),
        )
        result = system.standardize(alex_script)
        assert result.improvement >= 0.0

    def test_corpus_identical_to_input(self, diabetes_corpus, diabetes_dir):
        system = LucidScript(
            [diabetes_corpus[0]] * 3,
            data_dir=diabetes_dir,
            config=LSConfig(seq=4, beam_size=1, sample_rows=100),
        )
        result = system.standardize(diabetes_corpus[0])
        assert result.re_before == pytest.approx(0.0, abs=1e-9)
        assert result.improvement == pytest.approx(0.0)

    def test_script_of_only_header(self, diabetes_corpus, diabetes_dir):
        system = LucidScript(
            diabetes_corpus,
            data_dir=diabetes_dir,
            intent=TableJaccardIntent(tau=0.9),
            config=LSConfig(seq=4, beam_size=1, sample_rows=100),
        )
        result = system.standardize(
            "import pandas as pd\ndf = pd.read_csv('diabetes.csv')"
        )
        # a bare loader can only gain steps, never lose the protected header
        assert "read_csv" in result.output_script
        assert result.improvement >= 0.0


class TestAdversarialScripts:
    def test_comments_and_blank_lines_tolerated(self, diabetes_corpus, diabetes_dir):
        system = LucidScript(
            diabetes_corpus, data_dir=diabetes_dir,
            config=LSConfig(seq=2, beam_size=1, sample_rows=100),
        )
        messy = (
            "# my prep script\n"
            "import pandas as pd\n\n\n"
            "df = pd.read_csv('diabetes.csv')  # load\n"
            "df = df.fillna(df.mean())\n"
        )
        result = system.standardize(messy)
        assert "#" not in result.output_script

    def test_semicolon_statements_split(self):
        dag = parse_script("import pandas as pd; x = 1; y = 2")
        assert len(dag) == 3

    def test_unicode_identifiers(self):
        dag = parse_script("données = 42\nrésultat = données + 1")
        assert len(dag) == 2

    def test_deeply_nested_expression(self):
        script = "x = " + "(" * 40 + "1" + ")" * 40
        dag = parse_script(script)
        assert dag.statements[0].source == "x = 1"

    def test_very_long_chain(self):
        script = (
            "import pandas as pd\n"
            "df = pd.read_csv('t.csv')\n"
            "df = df" + ".dropna()" * 25
        )
        dag = parse_script(script)
        assert len(dag.statements[2].onegrams) == 25

    def test_no_infinite_loop_on_empty_vocab_overlap(
        self, diabetes_dir, rng
    ):
        """A corpus with zero overlap with the input still terminates."""
        foreign_corpus = [
            "import pandas as pd\n"
            "df = pd.read_csv('other.csv')\n"
            "df = df.sort_values('zzz')",
        ] * 2
        system = LucidScript(
            foreign_corpus,
            data_dir=diabetes_dir,
            config=LSConfig(seq=4, beam_size=1, sample_rows=100),
        )
        result = system.standardize(
            "import pandas as pd\n"
            "df = pd.read_csv('diabetes.csv')\n"
            "df = df.fillna(df.mean())"
        )
        assert result.improvement >= 0.0


class TestTextNotValidUtf8:
    """A lone surrogate (``"\\udc80"``, which a JSON request can carry) makes
    the text unencodable as UTF-8: it fails to parse like a syntax error."""

    SCRIPT = (
        "import pandas as pd\n"
        "df = pd.read_csv('diabetes.csv')\n"
        "df['note'] = 'caf\udc80'\n"
    )

    def test_parse_reports_a_syntax_error_with_its_line(self):
        from repro._astparse import ast_parse
        from repro.lang import ScriptError

        with pytest.raises(SyntaxError) as excinfo:
            ast_parse(self.SCRIPT)
        assert (excinfo.value.lineno, excinfo.value.offset) == (3, 18)
        assert "'\\udc80'" in str(excinfo.value)  # escaped: printable anywhere
        str(excinfo.value).encode("utf-8")
        with pytest.raises(ScriptError):
            parse_script(self.SCRIPT)
        with pytest.raises(ScriptError):
            lemmatize(self.SCRIPT)

    def test_execution_fails_as_a_syntax_error(self, diabetes_dir):
        from repro.sandbox import IncrementalExecutor

        cold = run_script(self.SCRIPT, data_dir=diabetes_dir)
        assert not cold.ok
        assert (cold.error_type, cold.error_line) == ("SyntaxError", 3)
        executor = IncrementalExecutor(data_dir=diabetes_dir)
        for segments in (None, tuple(self.SCRIPT.split("\n"))):
            warm = executor.run_script(self.SCRIPT, segments=segments)
            assert (warm.ok, warm.error_type, warm.error_line) == (
                False, "SyntaxError", 3,
            )

    def test_corpus_skips_it_on_every_path(self, diabetes_corpus):
        from repro.corpus import (
            CorpusIndex,
            cached_index,
            clear_corpus_cache,
            shared_store,
        )
        from repro.lang import ScriptError

        clear_corpus_cache()
        try:
            assert shared_store().get_or_parse(self.SCRIPT) is None
            corpus = diabetes_corpus + [self.SCRIPT]
            warm = cached_index(corpus)
            cold = CorpusIndex.from_scripts(corpus)
            assert warm.n_failures == cold.n_failures == 1
            assert warm.to_vocabulary().edge_counts == (
                CorpusVocabulary.from_scripts(diabetes_corpus).edge_counts
            )
            for build in (cached_index, CorpusVocabulary.from_scripts):
                with pytest.raises(ScriptError):
                    build([self.SCRIPT])
        finally:
            clear_corpus_cache()

    def test_standardize_raises_a_script_error(self, diabetes_corpus, diabetes_dir):
        from repro.lang import ScriptError

        system = LucidScript(
            diabetes_corpus, data_dir=diabetes_dir,
            config=LSConfig(seq=2, beam_size=1, sample_rows=100),
        )
        for method in (system.score, system.standardize):
            with pytest.raises(ScriptError, match="not valid UTF-8"):
                method(self.SCRIPT)
