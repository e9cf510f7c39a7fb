"""Tests for script lemmatization (Section 5.1)."""

import pytest

from repro.lang import ScriptParseError, UnsupportedScriptError, lemmatize


class TestCanonicalRenaming:
    def test_read_csv_target_renamed_to_df(self):
        out = lemmatize("import pandas as pd\ntrain = pd.read_csv('d.csv')\ntrain = train.dropna()")
        assert "df = pd.read_csv('d.csv')" in out
        assert "df = df.dropna()" in out
        assert "train" not in out

    def test_df_stays_df(self):
        out = lemmatize("import pandas as pd\ndf = pd.read_csv('d.csv')")
        assert "df = pd.read_csv('d.csv')" in out

    def test_two_files_get_distinct_names(self):
        out = lemmatize(
            "import pandas as pd\n"
            "a = pd.read_csv('one.csv')\n"
            "b = pd.read_csv('two.csv')\n"
            "a = a.dropna()\n"
            "b = b.dropna()"
        )
        assert "df = pd.read_csv('one.csv')" in out
        assert "df2 = pd.read_csv('two.csv')" in out

    def test_same_file_twice_shares_name(self):
        out = lemmatize(
            "import pandas as pd\n"
            "a = pd.read_csv('one.csv')\n"
            "b = pd.read_csv('one.csv')"
        )
        assert out.count("df = pd.read_csv('one.csv')") == 2

    def test_plain_alias_propagates(self):
        out = lemmatize(
            "import pandas as pd\n"
            "train = pd.read_csv('d.csv')\n"
            "data = train\n"
            "data = data.dropna()"
        )
        assert "df = df.dropna()" in out

    def test_derived_variables_keep_their_names(self):
        out = lemmatize(
            "import pandas as pd\n"
            "df = pd.read_csv('d.csv')\n"
            "y = df['target']\n"
            "X = df.drop('target', axis=1)"
        )
        assert "y = df['target']" in out
        assert "X = df.drop('target', axis=1)" in out

    def test_consistent_across_scripts(self):
        a = lemmatize("import pandas as pd\ntrain = pd.read_csv('d.csv')\ntrain = train.dropna()")
        b = lemmatize("import pandas as pd\nfoo = pd.read_csv('d.csv')\nfoo = foo.dropna()")
        assert a == b


class TestNormalization:
    def test_quote_style_normalized(self):
        a = lemmatize('import pandas as pd\ndf = pd.read_csv("d.csv")')
        b = lemmatize("import pandas as pd\ndf = pd.read_csv('d.csv')")
        assert a == b

    def test_whitespace_normalized(self):
        a = lemmatize("x   =   1 +   2")
        assert a == "x = 1 + 2"

    def test_comments_removed(self):
        out = lemmatize("x = 1  # the answer\n# a full-line comment\ny = 2")
        assert "#" not in out
        assert out == "x = 1\ny = 2"

    def test_blank_lines_removed(self):
        out = lemmatize("x = 1\n\n\ny = 2")
        assert out == "x = 1\ny = 2"

    def test_redundant_parens_removed(self):
        assert lemmatize("x = (1)") == "x = 1"

    def test_idempotent(self):
        script = "import pandas as pd\ntrain = pd.read_csv('d.csv')\ntrain = train.dropna()"
        once = lemmatize(script)
        assert lemmatize(once) == once


class TestErrors:
    def test_syntax_error(self):
        with pytest.raises(ScriptParseError):
            lemmatize("def broken(:")

    def test_function_def_unsupported(self):
        with pytest.raises(UnsupportedScriptError):
            lemmatize("def f():\n    pass")

    def test_class_unsupported(self):
        with pytest.raises(UnsupportedScriptError):
            lemmatize("class C:\n    pass")

    def test_while_unsupported(self):
        with pytest.raises(UnsupportedScriptError):
            lemmatize("while True:\n    pass")

    def test_try_unsupported(self):
        with pytest.raises(UnsupportedScriptError):
            lemmatize("try:\n    pass\nexcept Exception:\n    pass")

    def test_straight_line_if_allowed(self):
        # simple conditionals are tolerated (they parse and unparse cleanly)
        out = lemmatize("x = 1\nif x:\n    y = 2")
        assert "if x:" in out


class TestHelpers:
    def test_read_csv_dynamic_path(self):
        # a load from a non-constant path is still a load: its target is renamed
        out = lemmatize("import pandas as pd\nx = pd.read_csv(p)\ny = x.dropna()")
        assert out == "import pandas as pd\ndf = pd.read_csv(p)\ny = df.dropna()"
