"""CLI output fixture: the four job ops, replayed byte for byte.

The fixture holds 81 invocations of ``repro standardize|score|explain|
detect-leakage`` run in-process through :func:`repro.cli.main`:

* three corpora: medical and titanic at seed 1 (12 scripts, one file
  each, ``script_000.py`` as the input) and the committed tablereport
  example (``--dialect tablereport``, ``prep_03.py`` as the input);
* three corpus forms: ``--corpus-dir``, ``--index`` (a fresh
  ``index build`` of the same directory) and ``--retrieve-k 4
  --audit``, which runs every oracle (the retrieval, scoring, intent,
  index and kernel audits) beside the fast paths;
* for the searching ops, the default flags, ``--no-diversity
  --late-check --sample-rows 0`` and, on the pandas corpora,
  ``--target``; every search runs ``--seq 16 --beam-size 1``.

Each case records its stdout, its exit status and the ``# `` summary
lines it prints on stderr.  The ``--corpus-dir`` and ``--retrieve-k``
cases replay byte for byte.  An ``--index`` case must equal its
``--corpus-dir`` twin, since both read the same directory.

The JSON was recorded before the CLI's job ops moved onto the server's
request model.  Never regenerate it to make this test pass.  To record::

    PYTHONPATH=src python tests/test_cli_fixture.py --record
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from repro.cli import main
from repro.workloads import build_competition

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "cli_seed1.json")
TABLEREPORT_DIR = os.path.join(
    os.path.dirname(__file__), "..", "examples", "tablereport_corpus"
)
SEED = 1
N_SCRIPTS = 12
SEARCH = ["--seq", "16", "--beam-size", "1"]
SEARCH_OPS = ("standardize", "explain", "detect-leakage")
FORMS = ("corpus-dir", "index", "retrieve-k")


def _corpora(root):
    """(name, dialect flags, corpus dir, input script, data dir, target)."""
    corpora = []
    for name in ("medical", "titanic"):
        corpus = build_competition(
            name, os.path.join(root, name), seed=SEED, n_scripts=N_SCRIPTS
        )
        scripts_dir = os.path.join(root, f"{name}_scripts")
        os.makedirs(scripts_dir)
        for position, script in enumerate(corpus.scripts):
            path = os.path.join(scripts_dir, f"script_{position:03d}.py")
            with open(path, "w") as handle:
                handle.write(script + "\n")
        corpora.append((
            name, [], scripts_dir, os.path.join(scripts_dir, "script_000.py"),
            corpus.data_dir, corpus.target,
        ))
    corpora.append((
        "tablereport", ["--dialect", "tablereport"], TABLEREPORT_DIR,
        os.path.join(TABLEREPORT_DIR, "prep_03.py"), TABLEREPORT_DIR, None,
    ))
    return corpora


def run_cli(argv):
    """Run one CLI invocation in-process: (status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
    return status, out.getvalue(), err.getvalue()


def _cases(root):
    """(case id, argv) for all 81 cases, in recording order."""
    cases = []
    for name, dialect, corpus_dir, script, data_dir, target in _corpora(root):
        index_path = os.path.join(root, f"{name}.index.json")
        status, _, err = run_cli(
            ["index", "build", "--corpus-dir", corpus_dir, "--out", index_path]
            + dialect
        )
        assert status == 0, err
        forms = {
            "corpus-dir": ["--corpus-dir", corpus_dir],
            "index": ["--index", index_path],
            "retrieve-k": ["--corpus-dir", corpus_dir, "--retrieve-k", "4",
                           "--audit"],
        }
        variants = {
            "default": [],
            "exact": ["--no-diversity", "--late-check", "--sample-rows", "0"],
        }
        if target:
            variants["target"] = ["--target", target]
        for form in FORMS:
            base = ["--script", script] + dialect + forms[form]
            cases.append((f"{name}/{form}/score", ["score"] + base))
            for op in SEARCH_OPS:
                for variant, flags in variants.items():
                    cases.append((
                        f"{name}/{form}/{op}/{variant}",
                        [op] + base + ["--data-dir", data_dir] + SEARCH + flags,
                    ))
    return cases


def run_cases(root):
    """The 81 case records, in recording order."""
    records = []
    for case, argv in _cases(root):
        status, stdout, stderr = run_cli(argv)
        summary = [line for line in stderr.splitlines() if line.startswith("# ")]
        records.append(
            {"case": case, "status": status, "stdout": stdout, "summary": summary}
        )
    return records


def test_replays_recorded_cli_outputs(tmp_path):
    with open(FIXTURE) as handle:
        recorded = {record["case"]: record for record in json.load(handle)}
    live = run_cases(str(tmp_path))
    assert len(recorded) == len(live) == 81
    for record in live:
        name, form, rest = record["case"].split("/", 2)
        # an --index case reads the directory its --corpus-dir twin reads
        twin = f"{name}/corpus-dir/{rest}" if form == "index" else record["case"]
        want = dict(recorded[twin], case=record["case"])
        assert record == want, f"{record['case']} diverged from {twin}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_cli_fixture.py --record")
    with tempfile.TemporaryDirectory() as root:
        records = run_cases(root)
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as handle:
        # one case per line, so a diff of the fixture shows which cases moved
        lines = ",\n".join(json.dumps(record, sort_keys=True) for record in records)
        handle.write(f"[\n{lines}\n]\n")
    print(f"recorded {len(records)} cases to {os.path.normpath(FIXTURE)}")
