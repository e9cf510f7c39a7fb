"""The incremental executor's statement entry point and shared caches.

Beam candidates reach the sandbox as their statement texts
(``run_script(source, segments=...)``), so the executor neither parses nor
splits them.  Every result must equal the raw-text entry point's and a
cold :func:`run_script`'s, on fresh and on warm executors.
"""

import ast
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LSConfig, LucidScript, TableJaccardIntent
from repro.core.standardizer import StandardizationError
from repro.corpus import RetrievalIndex
from repro.lang import lemmatize
from repro.lang.parser import (
    STATEMENT_CACHE,
    STATEMENT_CACHE_LIMIT,
    Statement,
    parse_statement,
)
from repro.sandbox import IncrementalExecutor, run_script
from repro.sandbox import incremental

from .test_sandbox_incremental import _result_signature, statement_segments

#: One top-level statement each.  They read and write ``df`` and ``Box``
#: so that orderings change what later statements see.
STATEMENTS = (
    "import pandas as pd",
    "df = pd.DataFrame({'a': [1, 2, 3], 'b': ['x', None, 'z']})",
    "df = df[df['a'] > 1]",
    "rows = [\n    1,\n    2,\n]",
    "s = '''p\r\nq'''",
    "df['c'] = df['a'] * len(s)",
    "if len(df) > 1:\n    df = df.fillna('w')\nelse:\n    df = df.dropna()",
    "for _ in range(2):\n    df['d'] = df['a'] + 1",
    "try:\n    df = df.drop('zz', axis=1)\nexcept KeyError:\n    df['e'] = 0",
    "@(lambda c: c)\nclass Box:\n    v = 1",
    "Box.v = 2",
    "df['v'] = Box.v",
    "df = df.drop('nope', axis=1)",
    "break",
    "global df",
)


def _segments(statements, unparse):
    if unparse:
        return tuple(ast.unparse(ast.parse(s).body[0]) for s in statements)
    return tuple(statements)


class TestStatementEntryPoint:
    @settings(max_examples=150, deadline=None)
    @given(
        statements=st.lists(st.sampled_from(STATEMENTS), min_size=1, max_size=7),
        unparse=st.booleans(),
    )
    def test_matches_raw_text_and_cold_runs(self, statements, unparse):
        segments = _segments(statements, unparse)
        source = "\n".join(segments)
        assert statement_segments(source, ast.parse(source).body) == list(segments)
        cold = _result_signature(run_script(source))
        fresh = IncrementalExecutor().run_script(source, segments=segments)
        raw = IncrementalExecutor().run_script(source)
        assert _result_signature(fresh) == cold
        assert _result_signature(raw) == cold
        # warm: the prefix, then a sibling with another last statement,
        # have been snapshotted before the script itself runs
        warm = IncrementalExecutor()
        for head in (segments[:-1], segments[:-1] + ("df = df.dropna()",)):
            if head:
                warm.run_script("\n".join(head), segments=head)
        resumed = warm.run_script(source, segments=segments)
        assert _result_signature(resumed) == cold

    def test_segments_must_join_to_the_source(self):
        executor = IncrementalExecutor()
        with pytest.raises(ValueError):
            executor.run_script("a = 1\nb = 2", segments=("a = 1",))
        with pytest.raises(ValueError):
            executor.run_script("a = 1\r\nb = 2", segments=("a = 1", "b = 2"))

    def test_segments_skip_parsing_and_splitting(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("parsed a script that came with its segments")

        monkeypatch.setattr(incremental, "ast_parse", refuse)
        monkeypatch.setattr(incremental, "statement_sources", refuse)
        segments = ("import pandas as pd", "df = pd.DataFrame({'a': [1]})")
        result = IncrementalExecutor().run_script(
            "\n".join(segments), segments=segments
        )
        assert result.ok and result.output["a"].tolist() == [1]

    @pytest.mark.parametrize(
        "segments",
        [
            ("a = 1\r", "\nb = undefined"),
            ("s = '''x\ry'''", "b = undefined"),
            ("s = '''x\r\ny'''", "t = 1", "b = undefined"),
        ],
        ids=["cr_before_join", "lone_cr_in_literal", "crlf_in_literal"],
    )
    def test_line_numbers_count_breaks_like_the_parser(self, segments):
        source = "\n".join(segments)
        result = IncrementalExecutor().run_script(source, segments=segments)
        cold = run_script(source)
        assert result.error_type == cold.error_type == "NameError"
        assert result.error_line == cold.error_line

    def test_check_executes_forwards_segments(self):
        segments = ("import pandas as pd", "df = pd.DataFrame({'a': [1]})")
        executor = IncrementalExecutor()
        assert executor.check_executes("\n".join(segments), segments=segments)
        assert not executor.check_executes("\n".join(segments[:1]), segments=segments[:1])


class TestScriptClassesAreNotShared:
    """A snapshot must not carry state between scripts through a class
    the script defined."""

    def test_mutated_class_attribute_does_not_leak(self):
        mutates = (
            'import pandas as pd\nclass A:\n    x = 1\nA.x = 2\n'
            'df = pd.DataFrame({"a": [A.x]})'
        )
        reads = 'import pandas as pd\nclass A:\n    x = 1\ndf = pd.DataFrame({"a": [A.x]})'
        executor = IncrementalExecutor()
        executor.run_script(mutates)
        result = executor.run_script(reads)
        assert _result_signature(result) == _result_signature(run_script(reads))
        assert result.output["a"].tolist() == [1]

    def test_decorated_class_does_not_resume_from_another_decorator(self):
        first = 'import pandas as pd\n@str\nclass A: ...\ndf = pd.DataFrame({"a": [A]})'
        second = 'import pandas as pd\n@len\nclass A: ...\ndf = pd.DataFrame({"a": [A]})'
        executor = IncrementalExecutor()
        assert executor.run_script(first).ok
        result = executor.run_script(second)
        cold = run_script(second)
        assert _result_signature(result) == _result_signature(cold)
        assert result.error_type == "TypeError"

    def test_instances_of_script_classes_are_not_snapshotted(self):
        source = (
            "import pandas as pd\nbox = type('Box', (), {'v': 1})()\n"
            "type(box).v = 2\ndf = pd.DataFrame({'a': [box.v]})"
        )
        executor = IncrementalExecutor()
        executor.run_script(source)
        reread = source.replace("type(box).v = 2", "n = 0")
        result = executor.run_script(reread)
        assert result.output["a"].tolist() == [1]

    def test_module_and_dialect_types_stay_shared(self):
        executor = IncrementalExecutor()
        source = "import pandas as pd\nframe_type = pd.DataFrame\ndf = frame_type({'a': [1]})"
        executor.run_script(source)
        assert executor.snapshot_count() == 3


#: Scripts that compile only as a whole script, or not at all.
COMPILE_ERRORS = {
    "break": "import pandas as pd\ndf = pd.DataFrame({'a': [1, 2]})\nbreak\n",
    "return": "import pandas as pd\nreturn 1",
    "yield": "x = 1\nyield x",
    "await": "import pandas as pd\nawait x",
    "nonlocal": "x = 1\nnonlocal x",
    "runtime_error_before_compile_error": "import pandas as pd\nx = undefined\nbreak",
    "assigned_before_global": "x = 1\nglobal x",
    "global_inside_a_block": "x = 1\nif True:\n    global x",
    "late_future_import": "x = 1\nfrom __future__ import annotations",
}


class TestCompileErrors:
    @pytest.mark.parametrize("source", COMPILE_ERRORS.values(), ids=list(COMPILE_ERRORS))
    @pytest.mark.parametrize("with_segments", [False, True])
    def test_matches_cold_run(self, source, with_segments):
        segments = None
        if with_segments:
            segments = statement_segments(source, ast.parse(source).body)
            source = "\n".join(segments)
        result = IncrementalExecutor().run_script(source, segments=segments)
        cold = run_script(source)
        assert not cold.ok
        assert (result.ok, result.error_type, result.error_line) == (
            cold.ok,
            cold.error_type,
            cold.error_line,
        )

    def test_warm_prefix_does_not_hide_a_compile_error(self):
        executor = IncrementalExecutor()
        source = COMPILE_ERRORS["runtime_error_before_compile_error"]
        executor.run_script("import pandas as pd\nx = 1")
        result = executor.run_script(source)
        assert (result.error_type, result.error_line) == ("SyntaxError", 3)

    @pytest.mark.parametrize("with_segments", [False, True])
    @pytest.mark.parametrize("name", ["break", "return", "await"])
    def test_compile_error_after_a_resumed_prefix(self, name, with_segments):
        """The prefix resumes from its snapshot and only the suffix
        compiles, so the error is found there: still the cold run's."""
        segments = statement_segments(
            COMPILE_ERRORS[name], ast.parse(COMPILE_ERRORS[name]).body
        )
        source, prefix = "\n".join(segments), segments[:-1]
        executor = IncrementalExecutor()
        assert executor.run_script("\n".join(prefix), segments=prefix).ok
        hits = executor.stats.prefix_hits
        result = executor.run_script(
            source, segments=segments if with_segments else None
        )
        cold = run_script(source)
        assert (result.ok, result.error_type, result.error_line) == (
            False, "SyntaxError", cold.error_line,
        )
        assert cold.error_type == "SyntaxError"
        assert executor.stats.prefix_hits == hits  # no run is counted

    def test_standardize_raises_standardization_error(self):
        corpus = ["import pandas as pd\ndf = pd.DataFrame({'a': [1, 2]})"]
        system = LucidScript(corpus)
        with pytest.raises(StandardizationError):
            system.standardize(COMPILE_ERRORS["break"])


class TestResumeThenCompile:
    """A run resumes from its longest snapshotted prefix first and then
    compiles only the statements it executes."""

    BASE = [
        "import pandas as pd",
        "df = pd.read_csv('diabetes.csv')",
        "df = df.fillna(df.mean())",
    ]
    TAIL = ["df = df[df['SkinThickness'] < 80]", "df = pd.get_dummies(df)"]

    @pytest.fixture()
    def compiled(self, monkeypatch):
        calls = []
        real = incremental._compiled

        def spy(segment, lineno):
            calls.append((segment, lineno))
            return real(segment, lineno)

        monkeypatch.setattr(incremental, "_compiled", spy)
        return calls

    def test_a_resumed_run_compiles_none_of_its_prefix(self, compiled, diabetes_dir):
        executor = IncrementalExecutor(data_dir=diabetes_dir, sample_rows=100)
        assert executor.run_script("\n".join(self.BASE), segments=self.BASE).ok
        assert len(compiled) == len(self.BASE)
        compiled.clear()
        longer = self.BASE + self.TAIL
        result = executor.run_script("\n".join(longer), segments=longer)
        assert compiled == [(self.TAIL[0], 4), (self.TAIL[1], 5)]
        cold = run_script("\n".join(longer), data_dir=diabetes_dir, sample_rows=100)
        assert result.output.to_dict() == cold.output.to_dict()

        compiled.clear()
        assert executor.run_script("\n".join(longer), segments=longer).ok
        assert executor.run_script("\n".join(longer)).ok  # the raw-text path too
        assert compiled == []

    def test_the_suffix_compiles_at_its_own_lines(self, compiled, diabetes_dir):
        """A snapshot is keyed by statement texts alone, so a raw script
        with blank lines resumes from a prefix run at other lines; its
        suffix still reports the script's own line numbers."""
        executor = IncrementalExecutor(data_dir=diabetes_dir, sample_rows=100)
        assert executor.run_script("\n".join(self.BASE), segments=self.BASE).ok
        compiled.clear()
        source = "\n\n".join(self.BASE) + "\n\n# a comment\ndf = df['nope']\n"
        result = executor.run_script(source)
        cold = run_script(source, data_dir=diabetes_dir, sample_rows=100)
        assert executor.stats.prefix_hits == 1
        assert compiled == [("df = df['nope']", 8)]
        assert (result.error_type, result.error_line) == (cold.error_type, cold.error_line)
        assert cold.error_line == 8


class TestSharedCaches:
    """Statements are parsed, and compiled, once per process."""

    @staticmethod
    def _system(corpus, data_dir):
        return LucidScript(
            corpus,
            data_dir=data_dir,
            intent=TableJaccardIntent(tau=0.5),
            config=LSConfig(seq=4, beam_size=2, sample_rows=100),
        )

    def test_candidates_run_from_their_statement_texts(
        self, monkeypatch, diabetes_corpus, diabetes_dir, alex_script
    ):
        seen, raw = [], []
        real_run = IncrementalExecutor.run_script

        def record(executor, source, extra_globals=None, *, segments=None):
            if segments is None:
                raw.append(source)
            else:
                seen.append((source, tuple(segments)))
            return real_run(executor, source, extra_globals, segments=segments)

        monkeypatch.setattr(IncrementalExecutor, "run_script", record)
        result = self._system(diabetes_corpus, diabetes_dir).standardize(alex_script)
        assert result.changed
        assert raw == []
        # the input ran from the parser's split; the search's check ran
        # the winner, and verification took its table
        assert result.input_script in [source for source, _ in seen]
        assert result.output_script in [source for source, _ in seen]
        for source, segments in seen:
            assert tuple(statement_segments(source, ast.parse(source).body)) == segments

    @pytest.mark.parametrize("pool, parses", [(False, 1), (True, 1)])
    def test_the_query_is_parsed_once_per_corpus_layer(
        self, monkeypatch, diabetes_corpus, diabetes_dir, alex_script, pool, parses
    ):
        """``standardize()`` parses the whole query once: a pool's store
        builds its record for retrieval from that parse, and the sandbox
        runs the input from the parser's statement texts."""
        corpus = RetrievalIndex.from_scripts(diabetes_corpus) if pool else diabetes_corpus
        system = self._system(corpus, diabetes_dir)
        seen = []
        real = ast.parse

        def counted(source, *args, **kwargs):
            seen.append(source)
            return real(source, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counted)
        result = system.standardize(alex_script)
        query = (alex_script, result.input_script)
        assert sum(source in query for source in seen) == parses

    def test_second_search_parses_no_statement(
        self, monkeypatch, diabetes_corpus, diabetes_dir, alex_script
    ):
        first = self._system(diabetes_corpus, diabetes_dir).standardize(alex_script)
        parsed = []
        real = Statement.from_source.__func__

        def counted(cls, index, source, dialect=None):
            parsed.append(source)
            return real(cls, index, source, dialect=dialect)

        monkeypatch.setattr(Statement, "from_source", classmethod(counted))
        second = self._system(diabetes_corpus, diabetes_dir).standardize(alex_script)
        assert parsed == []
        assert second.output_script == first.output_script
        assert second.stats.breakdown()["StatementCacheHitRate"] == 1.0

    def test_second_executor_compiles_nothing_new(self, diabetes_corpus, diabetes_dir):
        scripts = [lemmatize(script) for script in diabetes_corpus]
        first = IncrementalExecutor(data_dir=diabetes_dir, sample_rows=100)
        for script in scripts:
            assert first.run_script(script).ok
        misses = incremental._CODE_CACHE.misses
        second = IncrementalExecutor(data_dir=diabetes_dir, sample_rows=100)
        for script in scripts:
            assert second.run_script(script).ok
        assert incremental._CODE_CACHE.misses == misses

    def test_shared_statements_equal_a_fresh_parse(
        self, diabetes_corpus, diabetes_dir, alex_script
    ):
        self._system(diabetes_corpus, diabetes_dir).standardize(alex_script)
        keys = STATEMENT_CACHE.keys()
        assert any(dialect == "pandas" for dialect, _ in keys)
        for dialect, source in keys:
            if dialect == "pandas":
                assert STATEMENT_CACHE.peek((dialect, source)) == Statement.from_source(
                    0, source
                )

    def test_caches_are_bounded_and_thread_safe(self):
        for cache, limit in (
            (incremental._CODE_CACHE, incremental.CODE_CACHE_LIMIT),
            (STATEMENT_CACHE, STATEMENT_CACHE_LIMIT),
        ):
            assert cache.capacity == limit
            assert cache._lock is not None


class TestSharedCachesAcrossThreads:
    """The server runs executors and searches on several threads, all
    sharing the two process-wide caches."""

    def test_concurrent_executors_and_parses_stay_exact(self):
        scripts = [
            "import pandas as pd\ndf = pd.DataFrame({'a': [1, 2, 3]})\n"
            + "df = df.dropna()\n" * (i % 3)
            + f"df['b'] = df['a'] * {i}\ndf = df[df['b'] > {i}]"
            for i in range(8)
        ]
        expected = [_result_signature(run_script(script)) for script in scripts]
        statements = [f"df = df.assign(c{i}=df['a'] + {i})" for i in range(24)]
        parsed = {source: Statement.from_source(0, source) for source in statements}
        caches = (incremental._CODE_CACHE, STATEMENT_CACHE)
        capacities = [cache.capacity for cache in caches]
        interval = sys.getswitchinterval()
        errors = []

        def work(offset):
            try:
                executor = IncrementalExecutor()
                for step in range(3 * len(scripts)):
                    k = (step + offset) % len(scripts)
                    segments = tuple(scripts[k].split("\n"))
                    result = executor.run_script(scripts[k], segments=segments)
                    assert _result_signature(result) == expected[k]
                    source = statements[(7 * step + offset) % len(statements)]
                    assert parse_statement(source) == parsed[source]
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        for cache in caches:
            cache.resize(8)  # constant eviction
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            for cache, capacity in zip(caches, capacities):
                cache.resize(capacity)
        assert errors == []
        assert all(len(cache) <= 8 for cache in caches)
