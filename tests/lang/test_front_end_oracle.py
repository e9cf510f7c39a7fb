"""Differential oracle: the one-pass lang front end against the two-pass one.

``repro.lang`` lemmatizes and parses a script from one ``ast.parse`` and
takes statements from two process-wide memos; ``tests/lang/reference.py``
is the two-pass implementation it replaced, with no memo.  For every
script and dialect, ``lemmatize`` must return the same text,
``parse_script`` the same statements (every field) and the same
``normalized`` text on the raw and on the ``lemmatized=True`` path, and
every error must have the same type and message.
"""

import ast
import contextlib
import gc
import glob
import os
import re
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dialects import get_dialect
from repro.lang import lemmatize, parse_script
from repro.lang.lemmatize import LEMMA_CACHE, LEMMA_CACHE_LIMIT
from repro.lang.parser import STATEMENT_CACHE, STATEMENT_CACHE_LIMIT, Statement
from repro.workloads import SPECS, build_competition, competition_names, generate_scripts
from repro.workloads.steps import RARE_POOLS, SLOT_POOLS

from . import reference

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

DIALECTS = (None, get_dialect("pandas"), get_dialect("tablereport"))
DIALECT_IDS = ("none", "pandas", "tablereport")

HAND_WRITTEN = [
    # line endings
    "import pandas as pd\r\ntrain = pd.read_csv('a.csv')\r\ntrain = train.dropna()\r\n",
    "import pandas as pd\rtrain = pd.read_csv('a.csv')\rtrain = train.dropna()",
    "train = pd.read_csv('a.csv',\r\n    usecols=['x',\r 'y'])\r\ntrain = train.dropna()",
    # several statements on a line, and continuations
    "import pandas as pd; train = pd.read_csv('a.csv'); train = train.dropna();",
    "import pandas as pd\ntrain = pd.read_csv(\\\n    'a.csv')\ntrain = train \\\n    .dropna()",
    # bracketed statements over several lines, compound statements
    "train = pd.read_csv(\n    'a.csv',\n    usecols=[\n        'x', 'y',\n    ],\n)\n"
    "train = train[\n    train['x'] > 0\n]",
    "import pandas as pd\ntrain = pd.read_csv('a.csv')\nif len(train) > 0:\n"
    "    train = train.dropna()\nelse:\n    train = train.fillna(0)\n"
    "for c in ['x', 'y']:\n    train[c] = train[c] * 2\n",
    # comments, blank lines and tabs
    "# header\n\nimport pandas as pd  # alias\n\n\ntrain = pd.read_csv('a.csv')\t# load\n"
    "if True:\n\ttrain = train.dropna()  # tab-indented\n\n# trailer\n",
    # non-ASCII text earlier on the line shifts byte columns
    "import pandas as pd\ntrain = pd.read_csv('é.csv'); x = 'ü'; train = train.dropna()",
    "données = 'é'; train = pd.read_csv('a.csv'); train = train.rename(columns={'é': 'e'})",
    "train = pd.read_csv('a.csv')\nrésumé = train; résumé = résumé.dropna()",
    # characters str.splitlines breaks at but the tokenizer does not
    "train = pd.read_csv('a.csv')\nx = 'a\u2028b\x85c\x1cd'; train = train.dropna()\n"
    "y = 'e\x0bf'; z = train",
    "x = 1\x0c\ntrain = pd.read_csv('a.csv')\n\x0ctrain = train.dropna()",
    # an old name that is a substring of another name
    "train = pd.read_csv('a.csv')\ntrain2 = pd.read_csv('b.csv')\n"
    "train2 = train2.merge(train)\ntrain_x = train2\nx = train_x['train']",
    "df_x = pd.read_csv('a.csv')\ndf = df_x.dropna()\ndf_x = df_x[df_x['df_x'] > 0]",
    # equal raw statement text under different rename maps
    "train = pd.read_csv('a.csv')\ntrain = train.dropna()",
    "test = pd.read_csv('t.csv')\ntrain = pd.read_csv('a.csv')\ntrain = train.dropna()",
    "train = 5\ntrain = train.dropna()",
    # identifiers the parser NFKC-normalizes (fullwidth t -> t)
    "\uff54rain = pd.read_csv('a.csv')\ny = train.dropna()\nz = \uff54rain",
    "train = pd.read_csv('a.csv')\ny = \uff54rain.dropna()",
    "\uff54rain = 5\ny = \uff54rain.dropna()",
    # dynamic loader paths
    "path = 'a.csv'\ntrain = pd.read_csv(path)\nother = pd.read_csv(f'{path}')\n"
    "train = train.merge(other)",
    "mychip = tr.load_design('design.csv')\nreport = mychip.timing_report()\n"
    "chip = tr.load_design(name)",
    # data loads and a loader name inside a string
    "df = pd.read_csv('a.csv').dropna()\ndf = df.drop(columns=['read_csv_flag'])",
    # errors
    "",
    "# only a comment\n",
    "def broken(:",
    "def f():\n    pass",
    "x = 1\nwhile x:\n    pass",
    "x = (",
    "x = 1\x00",
]


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc).__name__, str(exc)


def _reference_parse(source, lemmatized, dialect):
    statements = reference.parse_script(source, lemmatized, dialect)
    return statements, source if lemmatized else reference.lemmatize(source, dialect)


def _parse(source, lemmatized, dialect):
    dag = parse_script(source, lemmatized=lemmatized, dialect=dialect)
    return dag.statements, dag.normalized


def _front_end(script, dialect, lemmatize_fn, parse_fn):
    text = _outcome(lemmatize_fn, script, dialect)
    outcomes = [
        text,
        _outcome(parse_fn, script, False, dialect),
        _outcome(parse_fn, script, True, dialect),
    ]
    if text[0] == "ok":
        outcomes.append(_outcome(parse_fn, text[1], True, dialect))
    return outcomes


def expected(script, dialect):
    return _front_end(script, dialect, reference.lemmatize, _reference_parse)


def actual(script, dialect):
    return _front_end(script, dialect, lemmatize, _parse)


@contextlib.contextmanager
def caches_resized(capacity):
    for cache in (LEMMA_CACHE, STATEMENT_CACHE):
        cache.resize(capacity)
    try:
        yield
    finally:
        LEMMA_CACHE.resize(LEMMA_CACHE_LIMIT)
        STATEMENT_CACHE.resize(STATEMENT_CACHE_LIMIT)


@pytest.fixture(scope="module")
def corpus_scripts():
    """Every script of the seed 0-2 competitions (at the benchmark's row
    counts), ten more per competition and seed from the seed's second
    stream (where the benchmark draws its extra scripts), the committed
    examples and the tablereport corpus, each once."""
    scripts = []
    with tempfile.TemporaryDirectory() as root:
        for seed in range(3):
            extra = np.random.default_rng([seed, 1])
            for name in competition_names():
                corpus = build_competition(
                    name, root, seed=seed, n_rows=8000 if name == "sales" else None
                )
                scripts.extend(corpus.scripts)
                scripts.extend(
                    generate_scripts(SPECS[name], corpus.data_dir, extra, n_scripts=10)[0]
                )
    for pattern in ("examples/*.py", "examples/tablereport_corpus/*.py"):
        for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
            with open(path) as handle:
                scripts.append(handle.read())
    return list(dict.fromkeys(scripts))


class TestAgainstReference:
    @pytest.mark.parametrize("dialect", DIALECTS, ids=DIALECT_IDS)
    def test_hand_written_cases(self, dialect):
        for script in HAND_WRITTEN:
            assert actual(script, dialect) == expected(script, dialect), script

    @pytest.mark.parametrize("dialect", DIALECTS, ids=DIALECT_IDS)
    def test_corpora(self, corpus_scripts, dialect):
        assert len(corpus_scripts) > 700
        for script in corpus_scripts:
            assert actual(script, dialect) == expected(script, dialect), script

    def test_memo_entries_are_exact(self, corpus_scripts):
        for script in HAND_WRITTEN + corpus_scripts[::7]:
            for dialect in DIALECTS:
                _outcome(parse_script, script, False, dialect)
        for name, renames, raw in LEMMA_CACHE.keys():
            (node,) = ast.parse(raw).body
            renamed = reference._Renamer(dict(renames)).visit(node)
            assert LEMMA_CACHE.peek((name, renames, raw)) == ast.unparse(renamed)
        registered = {"pandas": DIALECTS[1], "tablereport": DIALECTS[2]}
        for name, text in STATEMENT_CACHE.keys():
            if name in registered:  # not a dialect another test made up
                assert STATEMENT_CACHE.peek((name, text)) == Statement.from_source(
                    0, text, dialect=registered[name]
                )

    def test_repeated_statements_are_shared(self):
        first = parse_script("train = pd.read_csv('a.csv')\ntrain = train.dropna()")
        second = parse_script(
            "import pandas as pd\ndata = pd.read_csv('a.csv')\ndata = data.dropna()"
        )
        assert second.statements[2].onegrams is first.statements[1].onegrams
        assert (second.statements[2].index, first.statements[1].index) == (2, 1)


_STEPS = sorted(
    {alt for slots in SLOT_POOLS.values() for slot in slots for alt, _ in slot.alternatives}
    | {step for steps in RARE_POOLS.values() for step in steps}
)


@settings(max_examples=60, deadline=None)
@given(
    variable=st.sampled_from(["df", "train", "data", "df_x", "train2", "\uff54rain"]),
    loader=st.sampled_from(["pd.read_csv('train.csv')", "tr.load_design('design.csv')"]),
    second=st.booleans(),
    steps=st.lists(st.sampled_from(_STEPS), max_size=8),
    separator=st.sampled_from(["\n", "\r\n", "\r", "; ", "  # note\n\n"]),
    dialect=st.sampled_from(DIALECTS),
)
def test_generated_scripts_match_the_reference(
    variable, loader, second, steps, separator, dialect
):
    lines = ["import pandas as pd", f"{variable} = {loader}"]
    if second:
        lines.append("other = pd.read_csv('test.csv')")
    lines.extend(re.sub(r"\bdf\b", variable, step) for step in steps)
    script = separator.join(lines)
    assert actual(script, dialect) == expected(script, dialect)


class TestStress:
    def test_one_entry_caches(self, corpus_scripts):
        scripts = HAND_WRITTEN + corpus_scripts[::8]
        with caches_resized(1):
            for script in scripts:
                for dialect in DIALECTS:
                    assert actual(script, dialect) == expected(script, dialect), script

    def test_threads_share_the_caches(self, corpus_scripts):
        cases = [
            (script, dialect)
            for script in HAND_WRITTEN + corpus_scripts[::25]
            for dialect in DIALECTS
        ]
        wanted = [expected(script, dialect) for script, dialect in cases]
        interval = sys.getswitchinterval()
        errors = []

        def work(offset):
            try:
                for step in range(len(cases)):
                    k = (7 * step + offset) % len(cases)
                    assert actual(*cases[k]) == wanted[k], cases[k]
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        with caches_resized(8):  # constant eviction
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=300)
                assert not any(thread.is_alive() for thread in threads)
            finally:
                sys.setswitchinterval(interval)
        assert errors == []

    def test_threads_parse_through_finalizer_garbage(self):
        """CPython 3.11's ``ast.parse`` keeps its recursion-depth check in
        interpreter-wide state: when a collection runs a finalizer in the
        middle of one thread's parse and another thread parses, the first
        raises ``SystemError: AST constructor recursion depth mismatch``.
        Without the package's parse lock, 5 of these 6 threads fail."""
        script = "import pandas as pd\ndf = pd.read_csv('train.csv')\n" + "\n".join(
            f"df['c{i}'] = df['a'] * {i} + df['b'].fillna({i})" for i in range(40)
        )
        wanted = parse_script(script).normalized
        interval = sys.getswitchinterval()
        errors = []

        class Litter:
            """Cyclic garbage whose finalizer runs Python code."""

            def __init__(self):
                self.me = self

            def __del__(self):
                sum(range(20))

        def work():
            try:
                for _ in range(60):
                    for _ in range(5):
                        Litter()
                    assert parse_script(script).normalized == wanted
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        assert gc.isenabled()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
