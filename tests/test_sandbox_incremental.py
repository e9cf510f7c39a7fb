"""Tests for the incremental executor and the LRU caches."""

import ast
import copy
import io
import os
import tokenize

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._lru import LRUCache
from repro.lang.lemmatize import statement_sources
from repro.minipandas import DataFrame
from repro.sandbox import IncrementalExecutor, check_executes, run_script
from repro.sandbox import incremental
from repro.sandbox import runner as runner_module
from repro.workloads import build_competition


def statement_segments(source, body):
    """The text of each statement the shared slicer cuts."""
    return [text for text, _ in statement_sources(source, body)]


PREFIX = (
    "import pandas as pd\n"
    "df = pd.read_csv('diabetes.csv')\n"
    "df = df.fillna(df.mean())\n"
    "df = df[df['SkinThickness'] < 80]"
)

SUFFIXES = [
    "df = df.dropna()",
    "df = pd.get_dummies(df)",
    "df = df.drop('Glucose', axis=1)",
    "df = df.drop('NoSuchColumn', axis=1)",  # fails on its last line
    "df = df[df['Age'] > 30]",
    "df = df.reset_index()",
]


def _result_signature(result):
    sig = (result.ok, result.error_type, result.error_line)
    if result.ok and result.output is not None:
        sig += (
            tuple(result.output.columns),
            result.output.index.tolist(),
            tuple(tuple(v) for v in result.output.to_dict().values()),
        )
    return sig


#: Sources whose line breaks, column offsets or layout a naive split
#: would get wrong; ``_oracle_segments`` is the oracle for each.
SEGMENT_CASES = {
    "crlf": "a = 1\r\nb = 2\r\n",
    "lone_cr": "a = 1\rb = 2\rc = a + b",
    "form_feed": "a = 1\n\x0cb = 2\n\x0c\nc = 3",
    "non_ascii_literals": "s = 'héllo wörld'; t = '€𝄞'\nu = len(s) + 1",
    "multi_line": "x = (1 +\n     2)\ny = [\n    'ü',\r\n    2,\n]\nz = 3",
    "two_on_one_line": "a = 1; b = 2",
    "trailing_comments": "a = 1  # one\nb = 'é'  # two, ü\n# a last comment\n",
    "u2028_in_literal": "s = 'a\u2028b'\nt = 1",
    "compound_crlf": "if a:\r\n    b = 'ä'\r\nelse:\r\n    b = 2\r\nc = b",
    "empty": "",
    "decorated_class": "a = 1\n@str\n@len\nclass A:\n    x = 'é'\nb = 2",
    "decorated_after_form_feed": "a = 1\n\x0c@str\r\ndef f():\r\n    return 1",
    "decorator_behind_paren": "@(\n    str\n)\nclass A: ...",
    "decorator_behind_backslash": "@\\\nstr\nclass A: ...",
    "matmul_line_in_decorator": "@(a\n@ b)\nclass A: ...",
}

_FRAGMENTS = (
    "a = 1",
    "b = 'é€'",
    "c = (1 +\n     2)",
    "d = [\r\n    'ü',\r\n]",
    "e = 'x\u2028y'",
    "f = 1; g = 2",
    "h = 3  # note ü",
    "if a:\n    i = 'ä'",
    "@str\nclass J:\n    k = 'é'",
    "@(lambda c: c)\r\n@str\r\ndef m():\r\n    return 1",
)
_BREAKS = ("\n", "\r\n", "\r", "\n\x0c", "\n\n")


def _oracle_segments(source, body):
    """``ast.get_source_segment`` of each node, except that a decorated
    definition starts at the ``@`` token of its first decorator."""
    at_tokens = [
        token.start
        for token in tokenize.generate_tokens(io.StringIO(source, newline=None).readline)
        if token.exact_type == tokenize.AT
    ]
    segments = []
    for node in body:
        if getattr(node, "decorator_list", None):
            first = node.decorator_list[0]
            start = max(at for at in at_tokens if at < (first.lineno, first.col_offset))
            node = copy.copy(node)
            node.lineno, node.col_offset = start
        segments.append(ast.get_source_segment(source, node))
    return segments


def _assert_matches_oracle(source):
    body = ast.parse(source).body
    assert statement_segments(source, body) == _oracle_segments(source, body)


class TestStatementSegments:
    @pytest.mark.parametrize(
        "source", list(SEGMENT_CASES.values()), ids=list(SEGMENT_CASES)
    )
    def test_matches_get_source_segment(self, source):
        _assert_matches_oracle(source)

    def test_decorated_segment_starts_at_first_decorator(self):
        source = SEGMENT_CASES["decorated_class"]
        segments = statement_segments(source, ast.parse(source).body)
        assert segments[1] == "@str\n@len\nclass A:\n    x = 'é'"

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(_FRAGMENTS), st.sampled_from(_BREAKS)),
            max_size=8,
        )
    )
    def test_random_layouts_match_get_source_segment(self, parts):
        _assert_matches_oracle("".join(fragment + brk for fragment, brk in parts))


class TestLRUCache:
    def test_capacity_bound(self):
        cache = LRUCache(2)
        cache["a"], cache["b"], cache["c"] = 1, 2, 3
        assert len(cache) == 2
        assert "a" not in cache
        assert cache.evictions == 1

    def test_hit_refreshes_recency(self):
        cache = LRUCache(2)
        cache["a"], cache["b"] = 1, 2
        assert cache.get("a") == 1  # refresh: "b" is now least recent
        cache["c"] = 3
        assert "a" in cache and "b" not in cache

    def test_hit_rate_accounting(self):
        cache = LRUCache(4)
        cache["a"] = 1
        cache.get("a")
        cache.get("missing")
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_peek_does_not_touch_counters(self):
        cache = LRUCache(4)
        cache["a"] = 1
        cache.peek("a")
        cache.peek("missing")
        assert cache.hits == 0 and cache.misses == 0

    def test_zero_capacity_disables_storage(self):
        cache = LRUCache(0)
        cache["a"] = 1
        assert "a" not in cache and len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)


class TestCsvCacheLRU:
    """The parsed-CSV cache is a true LRU keyed on (identity, sample_rows)."""

    @pytest.fixture(autouse=True)
    def _fresh_cache(self):
        runner_module._CSV_CACHE.clear()
        yield
        runner_module._CSV_CACHE.clear()

    def test_sampled_and_full_reads_cached_separately(self, diabetes_dir):
        path = os.path.join(diabetes_dir, "diabetes.csv")
        full = runner_module._load_table(path, None)
        sampled = runner_module._load_table(path, 50)
        assert len(full) > 50 and len(sampled) == 50
        # both variants live in the cache under distinct keys
        assert len(runner_module._CSV_CACHE) == 2
        assert runner_module._load_table(path, 50) is sampled
        assert runner_module._load_table(path, None) is full

    def test_sampled_read_is_deterministic_across_evictions(self, diabetes_dir):
        path = os.path.join(diabetes_dir, "diabetes.csv")
        first = runner_module._load_table(path, 50).index.tolist()
        runner_module._CSV_CACHE.clear()
        assert runner_module._load_table(path, 50).index.tolist() == first

    def test_hot_file_survives_cache_pressure(self, tmp_path):
        frame = DataFrame({"a": list(range(5))})
        hot = str(tmp_path / "hot.csv")
        frame.to_csv(hot)
        cold_paths = []
        for i in range(runner_module._CSV_CACHE.capacity - 1):
            p = str(tmp_path / f"cold{i}.csv")
            frame.to_csv(p)
            cold_paths.append(p)
        hot_frame = runner_module._load_table(hot, None)
        for p in cold_paths:
            runner_module._load_table(p, None)
            # a FIFO would evict `hot` midway; LRU keeps it because we touch it
            assert runner_module._load_table(hot, None) is hot_frame

    def test_kwargs_bypass_cache(self, diabetes_dir):
        path = os.path.join(diabetes_dir, "diabetes.csv")
        runner_module._load_table(path, None, nrows=10)
        assert len(runner_module._CSV_CACHE) == 0


class TestIncrementalExecutor:
    def test_matches_cold_run_on_shared_prefix_wave(self, diabetes_dir):
        sources = [f"{PREFIX}\n{suffix}" for suffix in SUFFIXES]
        cold = [run_script(s, data_dir=diabetes_dir, sample_rows=100) for s in sources]
        executor = IncrementalExecutor(data_dir=diabetes_dir, sample_rows=100)
        incremental = [executor.run_script(s) for s in sources]
        for c, i in zip(cold, incremental):
            assert _result_signature(c) == _result_signature(i)

    def test_prefix_reuse_reported(self, diabetes_dir):
        executor = IncrementalExecutor(data_dir=diabetes_dir, sample_rows=100)
        for suffix in SUFFIXES:
            executor.run_script(f"{PREFIX}\n{suffix}")
        assert executor.stats.prefix_hits == len(SUFFIXES) - 1
        assert executor.stats.prefix_misses == 1
        # every resumed run re-executed only its one-line suffix
        assert executor.stats.mean_resume_depth == 4.0

    def test_identical_script_is_a_full_prefix_hit(self, diabetes_dir):
        executor = IncrementalExecutor(data_dir=diabetes_dir, sample_rows=100)
        first = executor.run_script(PREFIX)
        executed = executor.stats.executed_statements
        second = executor.run_script(PREFIX)
        assert executor.stats.executed_statements == executed  # zero new work
        assert _result_signature(first) == _result_signature(second)

    def test_error_line_matches_cold_run(self, diabetes_dir):
        bad = PREFIX + "\ndf = df.dropna()\ndf = df.drop('Nope', axis=1)"
        executor = IncrementalExecutor(data_dir=diabetes_dir, sample_rows=100)
        executor.run_script(PREFIX + "\ndf = df.dropna()")  # warm the prefix
        resumed = executor.run_script(bad)
        cold = run_script(bad, data_dir=diabetes_dir, sample_rows=100)
        assert not resumed.ok and not cold.ok
        assert resumed.error_line == cold.error_line == 6
        assert resumed.error_type == cold.error_type == "KeyError"

    def test_crlf_error_line_after_multi_line_statement(self, diabetes_dir):
        prefix = (
            "import pandas as pd\r\n"
            "df = pd.read_csv('diabetes.csv')\r\n"
            "df = df.drop(\r\n"
            "    'Glucose',\r\n"
            "    axis=1)\r\n"
        )
        bad = prefix + "df = df.drop('Nope', axis=1)\r\n"
        executor = IncrementalExecutor(data_dir=diabetes_dir, sample_rows=100)
        executor.run_script(prefix)  # warm the prefix
        resumed = executor.run_script(bad)
        cold = run_script(bad, data_dir=diabetes_dir, sample_rows=100)
        assert executor.stats.prefix_hits == 1
        assert not resumed.ok and not cold.ok
        assert resumed.error_line == cold.error_line == 6
        assert resumed.error_type == cold.error_type == "KeyError"

    def test_outputs_are_independent_copies(self, diabetes_dir):
        executor = IncrementalExecutor(data_dir=diabetes_dir, sample_rows=100)
        first = executor.run_script(PREFIX)
        first.output["Mutant"] = 1.0
        second = executor.run_script(PREFIX)
        assert "Mutant" not in second.output.columns

    def test_aliasing_preserved_across_snapshots(self, diabetes_dir):
        source = (
            "import pandas as pd\n"
            "df = pd.read_csv('diabetes.csv')\n"
            "alias = df\n"
            "df.loc[:, 'Glucose'] = 0.0\n"
            "df = alias"
        )
        executor = IncrementalExecutor(data_dir=diabetes_dir, sample_rows=50)
        executor.run_script(source[: source.rfind("\n")])  # snapshot the prefix
        result = executor.run_script(source)
        assert result.ok
        assert set(result.output["Glucose"].tolist()) == {0.0}

    def test_randomness_bypasses_snapshots(self, diabetes_dir):
        source = (
            "import random\n"
            "import pandas as pd\n"
            "df = pd.read_csv('diabetes.csv')\n"
            "x = random.random()"
        )
        executor = IncrementalExecutor(data_dir=diabetes_dir, sample_rows=50)
        result = executor.run_script(source)
        assert result.ok
        assert executor.stats.cold_runs == 1
        assert executor.snapshot_count() == 0

    def test_random_state_kwarg_does_not_bypass(self, diabetes_dir):
        source = (
            "import pandas as pd\n"
            "df = pd.read_csv('diabetes.csv')\n"
            "df = df.sample(n=20, random_state=0)"
        )
        executor = IncrementalExecutor(data_dir=diabetes_dir, sample_rows=50)
        assert executor.run_script(source).ok
        assert executor.stats.cold_runs == 0
        assert executor.snapshot_count() > 0

    def test_extra_globals_bypass_snapshots(self, diabetes_dir):
        executor = IncrementalExecutor(data_dir=diabetes_dir, sample_rows=50)
        result = executor.run_script("y = injected + 1", extra_globals={"injected": 1})
        assert result.namespace["y"] == 2
        assert executor.stats.cold_runs == 1

    def test_snapshot_budget_bounds_store(self, diabetes_dir, monkeypatch):
        monkeypatch.setattr(incremental, "SNAPSHOT_LIMIT", 3)
        executor = IncrementalExecutor(data_dir=diabetes_dir, sample_rows=50)
        for suffix in SUFFIXES:
            executor.run_script(f"{PREFIX}\n{suffix}")
        assert executor.snapshot_count() == 3

    def test_data_file_change_invalidates_snapshots(self, tmp_path):
        data_dir = str(tmp_path)
        DataFrame({"a": list(range(50))}).to_csv(str(tmp_path / "diabetes.csv"))
        source = (
            "import pandas as pd\n"
            "df = pd.read_csv('diabetes.csv')\n"
            "df = df.dropna()"
        )
        executor = IncrementalExecutor(data_dir=data_dir)
        assert len(executor.run_script(source).output) == 50
        DataFrame({"a": [1, 2]}).to_csv(str(tmp_path / "diabetes.csv"))
        os.utime(str(tmp_path / "diabetes.csv"), (1, 1))  # distinct mtime
        # the rewrite must not be served from a stale prefix snapshot
        assert len(executor.run_script(source).output) == 2

    def test_restore_mismatch_falls_back_to_cold_run(self, diabetes_dir, monkeypatch):
        executor = IncrementalExecutor(data_dir=diabetes_dir, sample_rows=50)
        executor.run_script(PREFIX)

        def corrupt_thaw(frozen):
            namespace = original_thaw(frozen)
            namespace.pop("df", None)  # simulate a broken restore
            return namespace

        original_thaw = executor._thaw
        monkeypatch.setattr(executor, "_thaw", corrupt_thaw)
        result = executor.run_script(PREFIX + "\ndf = df.dropna()")
        assert result.ok  # the escape hatch re-ran the script cold
        assert executor.stats.fallbacks == 1

    def test_verify_mode_agrees_with_cold(self, diabetes_dir):
        executor = IncrementalExecutor(
            data_dir=diabetes_dir, sample_rows=100, verify=True
        )
        for suffix in SUFFIXES:
            executor.run_script(f"{PREFIX}\n{suffix}")
        assert executor.stats.fallbacks == 0

    def test_verify_mode_matches_an_output_with_nan_cells(self, tmp_path):
        # NaN != NaN, so an == comparison would call every output holding
        # a missing float a mismatch and raise the sandbox audit
        corpus = build_competition("titanic", str(tmp_path), seed=1)
        executor = IncrementalExecutor(
            data_dir=corpus.data_dir, sample_rows=500, verify=True
        )
        result = executor.run_script(
            "import pandas as pd\n"
            "df = pd.read_csv('train.csv')\n"
            "df = df.drop('Name', axis=1)"
        )
        assert any(
            value != value for column in result.output.columns
            for value in result.output[column]
        )
        assert executor.stats.fallbacks == 0
        assert executor.snapshot_count() == 3

    def test_check_executes_parity(self, diabetes_dir):
        executor = IncrementalExecutor(data_dir=diabetes_dir, sample_rows=100)
        for suffix in SUFFIXES:
            source = f"{PREFIX}\n{suffix}"
            assert executor.check_executes(source) == check_executes(
                source, data_dir=diabetes_dir, sample_rows=100
            )

    def test_syntax_error_reported(self, diabetes_dir):
        executor = IncrementalExecutor(data_dir=diabetes_dir)
        result = executor.run_script("x ===")
        assert not result.ok and result.error_type == "SyntaxError"

