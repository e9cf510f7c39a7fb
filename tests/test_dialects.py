"""The pluggable ApiDialect subsystem.

Covers the subsystem's hard guarantees:

- registry surface (unknown names fail listing the registered options,
  both directly and through ``LSConfig``);
- per-dialect sandbox module tables (satellite: out-of-surface imports
  raise a classified :class:`SandboxImportError` naming the module);
- dialect threading through the corpus layer — mixed-dialect admission
  is rejected, snapshots round-trip the dialect, and pre-dialect
  (legacy) snapshots load as pandas with a one-line upgrade note;
- cross-dialect property test: randomized interleaved
  add/remove/refresh on a tablereport corpus index stays bit-identical
  to a from-scratch vocabulary build;
- the ``verify_dialect`` audit — pandas must replay its pre-refactor
  fixture byte-for-byte — and a tablereport end-to-end smoke under a
  hard wall-clock cap.
"""

import copy
import json
import os
import random
import signal
import tempfile

import pytest

from repro.core import LSConfig, LucidScript, StandardizationError
from repro.core.beam import BeamSearch, Candidate
from repro.core.entropy import RelativeEntropyScorer
from repro.core.transformations import (
    ADD,
    DELETE,
    Transformation,
    enumerate_transformations,
)
from repro.corpus import (
    CorpusIndex,
    RetrievalIndex,
    ScriptStore,
    clear_corpus_cache,
    corpus_key,
    index_from_dict,
    index_to_dict,
)
from repro.dialects import (
    UnknownDialectError,
    dialect_names,
    get_dialect,
    resolve_dialect,
)
from repro.dialects.cases import fixture_case
from repro.dialects.tablereport_corpus import fixture_scripts, generate_corpus
from repro.dialects.verify import verify_dialect
from repro.lang import CorpusVocabulary, parse_script
from repro.lang.atoms import NGRAM
from repro.sandbox import SandboxImportError, run_script


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_corpus_cache()
    yield
    clear_corpus_cache()


@pytest.fixture()
def tablereport_dir(tmp_path):
    """A data directory holding the deterministic tablereport design."""
    case = fixture_case("tablereport")
    for filename, text in case.data_files.items():
        (tmp_path / filename).write_text(text)
    return str(tmp_path)


class TestRegistry:
    def test_both_dialects_registered(self):
        assert {"pandas", "tablereport"} <= set(dialect_names())

    def test_unknown_name_lists_registered(self):
        with pytest.raises(UnknownDialectError) as excinfo:
            get_dialect("polars")
        message = str(excinfo.value)
        assert "'polars'" in message
        assert "pandas" in message and "tablereport" in message

    def test_config_validates_dialect(self):
        with pytest.raises(UnknownDialectError) as excinfo:
            LSConfig(dialect="nope")
        assert "registered dialects" in str(excinfo.value)

    def test_resolve_accepts_none_name_and_instance(self):
        pandas = resolve_dialect(None)
        assert pandas.name == "pandas"
        assert resolve_dialect("tablereport").name == "tablereport"
        assert resolve_dialect(pandas) is pandas


class TestSandboxSurface:
    def test_tablereport_scripts_execute(self, tablereport_dir):
        corpus, _ = fixture_scripts()
        result = run_script(
            corpus[0], data_dir=tablereport_dir, dialect="tablereport"
        )
        assert result.ok, result.error
        # the output convention resolves the report variable to a table
        assert result.output is not None
        assert "slack" in result.output.columns

    def test_out_of_surface_import_is_classified(self, tablereport_dir):
        # numpy is on the pandas surface but NOT on tablereport's
        script = (
            "import numpy as np\n"
            "import tablereport\n"
            "design = tablereport.load_design('design.csv')\n"
            "report = design.timing_report()"
        )
        result = run_script(script, data_dir=tablereport_dir, dialect="tablereport")
        assert not result.ok
        assert result.error_type == "SandboxImportError"
        assert isinstance(result.error, SandboxImportError)
        assert result.error.module == "numpy"
        assert "'numpy'" in str(result.error)
        assert "tablereport" in str(result.error)

    def test_pandas_surface_unchanged(self, tablereport_dir):
        script = "import numpy as np\nx = np.mean([1, 2, 3])"
        assert run_script(script, dialect="pandas").ok

    def test_pandas_module_rejected_in_tablereport(self, tablereport_dir):
        script = "import pandas as pd\ndf = pd.read_csv('design.csv')"
        result = run_script(script, data_dir=tablereport_dir, dialect="tablereport")
        assert not result.ok
        assert isinstance(result.error, SandboxImportError)
        assert result.error.module == "pandas"


class TestCorpusDialects:
    def test_records_carry_dialect(self):
        corpus, _ = fixture_scripts()
        store = ScriptStore(dialect="tablereport")
        record = store.get_or_parse(corpus[0])
        assert record is not None
        assert record.dialect == "tablereport"

    def test_mixed_dialect_admission_rejected(self):
        corpus, _ = fixture_scripts()
        record = ScriptStore(dialect="tablereport").get_or_parse(corpus[0])
        index = CorpusIndex()  # pandas by default
        with pytest.raises(ValueError, match="never mix dialects"):
            index.add_record(record)

    def test_corpus_key_is_dialect_scoped(self):
        corpus, _ = fixture_scripts()
        assert corpus_key(corpus, "tablereport") != corpus_key(corpus, "pandas")

    def test_system_rejects_foreign_dialect_index(self, tablereport_dir):
        corpus, _ = fixture_scripts()
        index = CorpusIndex.from_scripts(corpus, dialect="tablereport")
        with pytest.raises(StandardizationError, match="dialect"):
            LucidScript(index, data_dir=tablereport_dir)  # pandas config

    def test_snapshot_roundtrips_dialect(self):
        corpus, _ = fixture_scripts()
        index = CorpusIndex.from_scripts(corpus, dialect="tablereport")
        payload = json.loads(json.dumps(index_to_dict(index)))
        assert payload["dialect"] == "tablereport"
        restored = index_from_dict(payload)
        assert restored.dialect == "tablereport"
        assert all(r.dialect == "tablereport" for r in restored._records.values())
        restored.verify()

    def test_legacy_snapshot_loads_as_pandas(self, capsys):
        scripts = [
            "import pandas as pd\n"
            "df = pd.read_csv('train.csv')\n"
            "df = df.dropna()",
            "import pandas as pd\n"
            "df = pd.read_csv('train.csv')\n"
            "df = df.drop_duplicates()",
        ]
        index = CorpusIndex.from_scripts(scripts)
        payload = json.loads(json.dumps(index_to_dict(index)))
        del payload["dialect"]  # simulate a pre-dialect snapshot
        restored = index_from_dict(payload)
        note = capsys.readouterr().err
        assert restored.dialect == "pandas"
        assert "predates dialect tagging" in note
        assert note.count("\n") == 1  # exactly one line
        # and the upgraded snapshot round-trips cleanly, note-free
        upgraded = json.loads(json.dumps(index_to_dict(restored)))
        assert upgraded["dialect"] == "pandas"
        again = index_from_dict(upgraded)
        assert capsys.readouterr().err == ""
        assert again.content_hashes() == index.content_hashes()

    def test_retrieval_stats_report_dialect(self):
        corpus, _ = fixture_scripts()
        pool = RetrievalIndex.from_scripts(corpus, dialect="tablereport")
        assert pool.stats()["dialect"] == "tablereport"


class TestCrossDialectProperties:
    def test_interleaved_mutations_stay_bit_identical(self, tmp_path):
        """Randomized add/remove/refresh on a tablereport index ==
        from-scratch rebuild, after every mutation batch."""
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        scripts = generate_corpus(seed=77, n=12)
        rng = random.Random(41)
        live = {}
        for i, script in enumerate(scripts[:6]):
            (corpus_dir / f"prep_{i:02d}.py").write_text(script)
            live[i] = script
        index = CorpusIndex(dialect="tablereport")
        index.refresh(str(corpus_dir))
        index.verify()  # from-scratch comparison, dialect-aware

        next_id = 6
        spare = list(scripts[6:])
        for _ in range(10):
            action = rng.choice(["add", "remove", "rewrite"])
            if action == "add" and spare:
                (corpus_dir / f"prep_{next_id:02d}.py").write_text(spare.pop())
                next_id += 1
            elif action == "remove" and len(live) > 2:
                victim = rng.choice(sorted(live))
                (corpus_dir / f"prep_{victim:02d}.py").unlink()
                del live[victim]
            elif action == "rewrite" and live:
                victim = rng.choice(sorted(live))
                path = corpus_dir / f"prep_{victim:02d}.py"
                path.write_text(path.read_text() + "\n# touched")
            index.refresh(str(corpus_dir))
            index.verify()

    def test_pandas_parity_via_verify_dialect(self):
        """The recorded pre-refactor pandas fixture replays byte-for-byte."""
        records = verify_dialect(["pandas"])
        assert records["pandas"]["dialect"] == "pandas"


class TestAddedStatementsKeepDialect:
    def test_added_loader_stays_protected(self):
        """A loader line the search adds is parsed with the search's
        dialect, so no later step may delete it."""
        tablereport = get_dialect("tablereport")
        corpus, _ = fixture_scripts()
        vocabulary = CorpusVocabulary.from_scripts(corpus, dialect=tablereport)
        search = BeamSearch(
            vocabulary,
            RelativeEntropyScorer(vocabulary),
            LSConfig(dialect="tablereport"),
        )
        statements = parse_script(
            "import tablereport as tr\nreport = design.timing_report()",
            lemmatized=True,
            dialect=tablereport,
        ).statements
        loader = "design = tr.load_design('design.csv')"
        parent = Candidate(
            statements=tuple(statements), applied=(), frontier=0, score=0.0
        )
        add = Transformation(
            kind=ADD, gram=NGRAM, signature=loader, position=1,
            statement_source=loader,
        )
        child = search._extend(parent, add, 0.0)
        assert child.statements[1].source == loader
        assert child.statements[1].protected
        deletes = [
            t.position
            for t in enumerate_transformations(child.statements, vocabulary)
            if t.kind == DELETE
        ]
        assert deletes == [2]  # only the report line; never the loader


class TestEndToEndSmoke:
    def test_tablereport_standardizes_under_timeout(self, tablereport_dir):
        """Full tablereport standardization, capped hard at 120s wall."""
        from repro.core.intent import TableJaccardIntent

        def _expired(signum, frame):  # pragma: no cover - only on hang
            raise TimeoutError("tablereport smoke exceeded its 120s cap")

        case = fixture_case("tablereport")
        previous = signal.signal(signal.SIGALRM, _expired)
        signal.alarm(120)
        try:
            system = LucidScript(
                case.corpus,
                data_dir=tablereport_dir,
                intent=TableJaccardIntent(tau=case.tau),
                config=LSConfig(
                    seq=case.seq,
                    beam_size=case.beam_size,
                    sample_rows=case.sample_rows,
                    dialect="tablereport",
                ),
            )
            result = system.standardize(case.input_script)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert result.re_after < result.re_before
        assert result.intent_satisfied
        assert "prune_slack(-9.0)" not in result.output_script
