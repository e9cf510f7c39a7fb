"""Tests for the script execution sandbox."""

import os
import subprocess
import sys

import pytest

import repro
from repro.minipandas import DataFrame
from repro.sandbox import check_executes, run_script


GOOD = (
    "import pandas as pd\n"
    "df = pd.read_csv('diabetes.csv')\n"
    "df = df.fillna(df.mean())\n"
    "df = df[df['SkinThickness'] < 80]"
)


class TestRunScript:
    def test_happy_path(self, diabetes_dir):
        result = run_script(GOOD, data_dir=diabetes_dir)
        assert result.ok
        assert isinstance(result.output, DataFrame)
        assert len(result.output) > 0

    def test_pandas_import_is_minipandas(self, diabetes_dir):
        result = run_script(
            "import pandas as pd\nx = pd.DataFrame({'a': [1]})", data_dir=diabetes_dir
        )
        assert result.ok
        assert isinstance(result.namespace["x"], DataFrame)

    def test_numpy_allowed(self):
        result = run_script("import numpy as np\nx = np.arange(3).sum()")
        assert result.ok
        assert result.namespace["x"] == 3

    def test_disallowed_import_fails(self):
        result = run_script("import sklearn")
        assert not result.ok
        # classified sandbox error, still an ImportError for script code
        assert result.error_type == "SandboxImportError"
        assert isinstance(result.error, ImportError)
        assert "'sklearn'" in str(result.error)
        assert "pandas" in str(result.error)  # names the rejecting dialect

    def test_os_import_blocked(self):
        result = run_script("import os")
        assert not result.ok

    def test_syntax_error_reported(self):
        result = run_script("x ===")
        assert not result.ok
        assert result.error_type == "SyntaxError"

    def test_runtime_error_line_number(self, diabetes_dir):
        result = run_script(GOOD + "\ndf = df.drop('NoSuchColumn', axis=1)", data_dir=diabetes_dir)
        assert not result.ok
        assert result.error_type == "KeyError"
        assert result.error_line == 5

    def test_missing_csv_fails(self, tmp_path):
        result = run_script(GOOD, data_dir=str(tmp_path))
        assert not result.ok
        assert result.error_type == "FileNotFoundError"

    def test_path_resolved_by_basename(self, diabetes_dir):
        script = GOOD.replace("'diabetes.csv'", "'/data/project/diabetes.csv'")
        assert run_script(script, data_dir=diabetes_dir).ok

    def test_sampling_caps_rows(self, diabetes_dir):
        result = run_script(GOOD, data_dir=diabetes_dir, sample_rows=50)
        assert result.ok
        assert len(result.output) <= 50

    def test_sampling_deterministic(self, diabetes_dir):
        a = run_script(GOOD, data_dir=diabetes_dir, sample_rows=50).output
        b = run_script(GOOD, data_dir=diabetes_dir, sample_rows=50).output
        assert a.index.tolist() == b.index.tolist()

    def test_extra_globals_visible(self):
        result = run_script("y = injected + 1", extra_globals={"injected": 41})
        assert result.namespace["y"] == 42


class TestOutputSelection:
    def test_prefers_df_variable(self, diabetes_dir):
        script = GOOD + "\nother = pd.DataFrame({'z': [1]})"
        result = run_script(script, data_dir=diabetes_dir)
        assert "SkinThickness" in result.output.columns

    def test_falls_back_to_last_assigned(self, diabetes_dir):
        script = (
            "import pandas as pd\n"
            "train = pd.read_csv('diabetes.csv')\n"
            "result = train.dropna()"
        )
        output = run_script(script, data_dir=diabetes_dir).output
        assert output is not None
        # `result` is the last assigned DataFrame
        assert len(output) <= 240

    def test_no_dataframe_output_is_none(self):
        result = run_script("x = 1")
        assert result.ok
        assert result.output is None


class TestCheckExecutes:
    def test_good_script(self, diabetes_dir):
        assert check_executes(GOOD, data_dir=diabetes_dir)

    def test_bad_script(self, diabetes_dir):
        assert not check_executes(GOOD + "\ndf = df['nope']", data_dir=diabetes_dir)

    def test_script_without_table_output_fails(self):
        assert not check_executes("x = 1")

    def test_empty_filter_still_executes(self, diabetes_dir):
        assert check_executes(GOOD + "\ndf = df[df['Age'] > 1000]", data_dir=diabetes_dir)


class TestFileGuard:
    def test_write_mode_blocked(self, diabetes_dir):
        result = run_script("f = open('out.txt', 'w')", data_dir=diabetes_dir)
        assert not result.ok
        assert result.error_type == "PermissionError"

    def test_append_mode_blocked(self, diabetes_dir):
        result = run_script("f = open('out.txt', 'a')", data_dir=diabetes_dir)
        assert not result.ok

    def test_read_outside_data_dir_blocked(self, diabetes_dir):
        result = run_script("f = open('/etc/hostname')", data_dir=diabetes_dir)
        assert not result.ok
        assert result.error_type == "PermissionError"

    def test_parent_traversal_blocked(self, diabetes_dir):
        result = run_script(
            "f = open('diabetes.csv/../../etc/passwd')", data_dir=diabetes_dir
        )
        assert not result.ok
        assert result.error_type == "PermissionError"

    def test_absolute_path_outside_blocked(self, diabetes_dir):
        result = run_script("f = open('/etc/passwd')", data_dir=diabetes_dir)
        assert not result.ok
        assert result.error_type == "PermissionError"

    def test_prefix_sibling_not_confused_with_root(self, tmp_path):
        """/data/dir-evil must not pass a prefix check rooted at /data/dir."""
        root = tmp_path / "data"
        root.mkdir()
        sibling = tmp_path / "data-evil"
        sibling.mkdir()
        (sibling / "secret.txt").write_text("secret")
        result = run_script(
            f"f = open({str(sibling / 'secret.txt')!r})", data_dir=str(root)
        )
        assert not result.ok
        assert result.error_type == "PermissionError"

    def test_symlink_escape_blocked(self, tmp_path):
        """A symlink inside the data dir must not read outside it."""
        root = tmp_path / "data"
        root.mkdir()
        outside = tmp_path / "outside.txt"
        outside.write_text("secret")
        import os
        os.symlink(str(outside), str(root / "sneaky.txt"))
        result = run_script(
            f"f = open({str(root / 'sneaky.txt')!r})", data_dir=str(root)
        )
        assert not result.ok
        assert result.error_type == "PermissionError"

    def test_read_inside_data_dir_allowed(self, diabetes_dir):
        script = (
            "import pandas as pd\n"
            "with open('diabetes.csv') as f:\n"
            "    header = f.readline()"
        )
        import os
        cwd = os.getcwd()
        try:
            os.chdir(diabetes_dir)
            result = run_script(script, data_dir=diabetes_dir)
        finally:
            os.chdir(cwd)
        assert result.ok
        assert "SkinThickness" in result.namespace["header"]


class TestGuardedImport:
    def test_numpy_submodule_import(self):
        result = run_script(
            "import numpy.linalg\nx = float(numpy.linalg.norm([3.0, 4.0]))"
        )
        assert result.ok
        assert result.namespace["x"] == 5.0

    def test_pandas_submodule_import_binds_proxy(self, diabetes_dir):
        """``import pandas.api`` resolves to the sandbox pandas proxy —
        the root binding still reads CSVs through the resolver."""
        result = run_script(
            "import pandas.api\ndf = pandas.read_csv('diabetes.csv')",
            data_dir=diabetes_dir,
        )
        assert result.ok
        assert "SkinThickness" in result.output.columns

    def test_disallowed_submodule_blocked(self):
        result = run_script("import os.path")
        assert not result.ok
        assert result.error_type == "SandboxImportError"
        assert "'os.path'" in str(result.error)  # names the full module

    def test_from_import_of_allowed_module(self):
        result = run_script("from math import sqrt\nx = sqrt(9)")
        assert result.ok
        assert result.namespace["x"] == 3.0


class TestErrorLines:
    def test_error_line_in_middle_of_script(self, diabetes_dir):
        script = (
            "import pandas as pd\n"
            "df = pd.read_csv('diabetes.csv')\n"
            "df = df.drop('NoSuchColumn', axis=1)\n"
            "df = df.fillna(df.mean())"
        )
        result = run_script(script, data_dir=diabetes_dir)
        assert not result.ok
        assert result.error_line == 3

    def test_error_line_on_first_statement(self):
        result = run_script("df = undefined_name\nx = 1")
        assert not result.ok
        assert result.error_type == "NameError"
        assert result.error_line == 1

    def test_syntax_error_line(self):
        result = run_script("x = 1\ny = (")
        assert not result.ok
        assert result.error_type == "SyntaxError"
        assert result.error_line == 2


class TestImportFootprint:
    def test_importing_the_package_loads_no_multiprocessing(self):
        """Constraint checks run serially in-process, so importing the
        library, the server and the CLI pulls in no process machinery."""
        src_root = os.path.dirname(os.path.dirname(repro.__file__))
        code = (
            "import sys\n"
            "import repro, repro.server, repro.cli\n"
            "print('multiprocessing' in sys.modules)"
        )
        completed = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src_root),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "False"
