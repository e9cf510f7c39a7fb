"""The CLI's job ops and ``repro client`` share one request model.

Parity: for each job op and corpus form, ``repro client <op>`` against a
running server gets a result whose rendering equals the local op's
stdout for the same flags.  Error paths: a request the model rejects
exits with one ``error:`` line and no traceback, and the server answers
the same request with ``bad_request`` or ``standardization``, never
``internal``.
"""

import contextlib
import io
import json
import os
import sys
from types import SimpleNamespace

import pytest

from repro.cli import JOB_COMMANDS, _render, main
from repro.server import ServerConfig
from repro.server.jobs import JobError, execute_job, normalize_job

from .server.thread import ServerThread
from .test_cli_fixture import _corpora, run_cli

SEARCH = ["--seq", "16", "--beam-size", "1"]


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """The fixture's medical corpus as a directory and a snapshot of it, a
    snapshot of the tablereport example, and a running server."""
    root = tmp_path_factory.mktemp("requests")
    medical, _, tablereport = _corpora(str(root))
    _, _, scripts, script, data_dir, _ = medical
    (root / "bad.py").write_text("not python (((\n")
    snapshots = {}
    for name, dialect, corpus_dir, *_ in (medical, tablereport):
        snapshots[name] = str(root / f"{name}.index.json")
        status, _, err = run_cli(
            ["index", "build", "--corpus-dir", corpus_dir, "--out", snapshots[name]]
            + dialect
        )
        assert status == 0, err
    server = ServerThread(ServerConfig(socket_path=str(root / "repro.sock"))).start()
    yield SimpleNamespace(
        root=root,
        script=script,
        data_dir=data_dir,
        forms={
            "corpus-dir": ["--corpus-dir", scripts],
            "index": ["--index", snapshots["medical"]],
            "retrieve-k": ["--corpus-dir", scripts, "--retrieve-k", "4"],
        },
        tablereport_index=snapshots["tablereport"],
        socket=server.config.socket_path,
    )
    server.stop()


def _served(ws, op, flags):
    """``repro client <op>``'s response to *flags*."""
    status, out, err = run_cli(["client", op, "--socket", ws.socket, *flags])
    response = json.loads(out)
    assert status == (0 if response["ok"] else 1), err
    return response


@pytest.mark.parametrize("form", ["corpus-dir", "index", "retrieve-k"])
@pytest.mark.parametrize("op", JOB_COMMANDS)
def test_client_result_renders_as_the_local_output(ws, op, form):
    flags = ["--script", ws.script, *ws.forms[form]]
    if op != "score":
        flags += ["--data-dir", ws.data_dir, *SEARCH]
    status, local, err = run_cli([op, *flags])
    assert status == 0, err
    response = _served(ws, op, flags)
    assert response["ok"], response
    assert _render(op.replace("-", "_"), response["result"]) + "\n" == local


def test_sample_rows_zero_means_no_sampling_on_both_paths(ws):
    flags = ["--script", ws.script, *ws.forms["corpus-dir"],
             "--data-dir", ws.data_dir, *SEARCH, "--sample-rows", "0"]
    status, local, err = run_cli(["standardize", *flags])
    assert status == 0, err
    response = _served(ws, "standardize", flags)
    assert response["ok"], response
    assert response["result"]["output_script"] + "\n" == local


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_deadline_must_be_a_finite_positive_number(ws, value):
    flags = ["--script", ws.script, *ws.forms["corpus-dir"], "--deadline-s", value]
    response = _served(ws, "score", flags)
    assert response["error"]["kind"] == "bad_request", response
    assert "deadline_s must be a finite positive number" in response["error"]["message"]
    message = _fails_cleanly(["serve", "--socket", str(ws.root / "unused.sock"),
                              "--deadline-s", value])
    assert "default_deadline_s must be a finite positive number" in message


def test_sample_rows_zero_in_a_request_is_a_bad_request(diabetes_corpus):
    with pytest.raises(JobError, match="sample_rows") as excinfo:
        normalize_job({"op": "standardize", "params": {
            "script": "df = 1", "corpus": diabetes_corpus,
            "config": {"sample_rows": 0}}})
    assert excinfo.value.kind == "bad_request"


def _fails_cleanly(argv):
    """Run the CLI in-process as the interpreter would, and require exit
    status 1 with exactly one ``error:`` line besides warnings; any
    other exception escapes, as it would as a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            assert isinstance(exc.code, str), exc.code  # printed, then exit 1
            print(exc.code, file=sys.stderr)
            status = 1
    lines = [line for line in err.getvalue().splitlines()
             if line and not line.startswith("warning: ")]
    assert status == 1
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


#: (flags after the common ones, the server's verdict kind)
ERROR_CASES = {
    "seq-0": (["--seq", "0"], "bad_request"),
    "retrieve-k-0": (["--retrieve-k", "0"], "bad_request"),
    "sample-rows-negative": (["--sample-rows", "-5"], "bad_request"),
    "tau-j-above-1": (["--tau-j", "1.5"], "bad_request"),
    "tau-m-negative": (["--target", "Outcome", "--tau-m", "-1"], "bad_request"),
    "target-missing": (["--target", "NoSuchColumn"], "standardization"),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_bad_values_end_in_one_classified_verdict(ws, case):
    extra, kind = ERROR_CASES[case]
    flags = ["--script", ws.script, *ws.forms["corpus-dir"],
             "--data-dir", ws.data_dir, *SEARCH, *extra]
    _fails_cleanly(["standardize", *flags])
    response = _served(ws, "standardize", flags)
    assert response["error"]["kind"] == kind, response


@pytest.mark.parametrize("op", ["score", "standardize"])
def test_unparseable_script_is_a_bad_request(ws, op):
    flags = ["--script", str(ws.root / "bad.py"), *ws.forms["corpus-dir"]]
    assert "failed to parse" in _fails_cleanly([op, *flags])
    assert _served(ws, op, flags)["error"]["kind"] == "bad_request"


#: RE is undefined without data-flow edges: each case's message
EDGELESS_CASES = {
    "script": "script has no data-flow edges; RE is undefined",
    "corpus": "corpus has no data-flow edges; RE is undefined",
}


@pytest.fixture(scope="module")
def edgeless(ws):
    """(script file, corpus directory) of each case: a script without
    edges against the fixture's corpus, and the fixture's script against
    a corpus whose only script has none."""
    (ws.root / "edgeless.py").write_text("y = 2\n")
    (ws.root / "edgeless").mkdir()
    (ws.root / "edgeless" / "only.py").write_text("x = 1\n")
    return {
        "script": (str(ws.root / "edgeless.py"), ws.forms["corpus-dir"][1]),
        "corpus": (ws.script, str(ws.root / "edgeless")),
    }


@pytest.mark.parametrize("retrieve", [[], ["--retrieve-k", "3"]], ids=["curated", "retrieval"])
@pytest.mark.parametrize("op", ["score", "standardize"])
@pytest.mark.parametrize("case", sorted(EDGELESS_CASES))
def test_input_without_edges_is_a_standardization_error(
    ws, edgeless, case, op, retrieve
):
    script, corpus_dir = edgeless[case]
    message = EDGELESS_CASES[case]
    flags = ["--script", script, "--corpus-dir", corpus_dir, *retrieve]
    if op == "standardize":
        flags += ["--data-dir", ws.data_dir, *SEARCH]
    assert _fails_cleanly([op, *flags]) == f"error: {message}"
    error = _served(ws, op, flags)["error"]
    assert (error["kind"], error["message"]) == ("standardization", message)
    with open(script) as handle:
        params = {"script": handle.read(), "corpus_dir": corpus_dir,
                  "retrieve_k": 3 if retrieve else None}
    with pytest.raises(JobError, match=f"^{message}$") as excinfo:
        execute_job(normalize_job({"op": op, "params": params}))
    assert excinfo.value.kind == "standardization"


@pytest.mark.parametrize("op", ["score", "standardize"])
def test_index_of_another_dialect_is_a_bad_request(ws, op):
    flags = ["--script", ws.script, "--index", ws.tablereport_index]
    assert "dialect" in _fails_cleanly([op, *flags])
    assert _served(ws, op, flags)["error"]["kind"] == "bad_request"
    retrieving = [*flags, "--retrieve-k", "4"]
    assert "dialect" in _fails_cleanly([op, *retrieving])
    assert _served(ws, op, retrieving)["error"]["kind"] == "bad_request"


def test_missing_script_file_is_one_error_line(ws):
    missing = str(ws.root / "missing.py")
    _fails_cleanly(["score", "--script", missing, *ws.forms["corpus-dir"]])
    _fails_cleanly(["index", "retrieve", "--script", missing,
                    *ws.forms["corpus-dir"]])


def test_index_retrieve_k_0_is_one_error_line(ws):
    _fails_cleanly(["index", "retrieve", "--script", ws.script,
                    *ws.forms["corpus-dir"], "-k", "0"])


def test_missing_index_file_is_a_bad_request(ws):
    flags = ["--script", ws.script, "--index", str(ws.root / "missing.json")]
    _fails_cleanly(["score", *flags])
    assert _served(ws, "score", flags)["error"]["kind"] == "bad_request"


INDEX_ERROR_CASES = {
    "build-missing-corpus-dir": ["build", "--corpus-dir", "{nodir}", "--out", "{out}"],
    "retrieve-missing-corpus-dir": ["retrieve", "--script", "{script}", "--corpus-dir", "{nodir}"],
    "stats-missing-index": ["stats", "--index", "{missing}"],
    "update-missing-index": ["update", "--index", "{missing}"],
    "retrieve-missing-index": ["retrieve", "--script", "{script}", "--index", "{missing}"],
    "stats-non-json-index": ["stats", "--index", "{notjson}"],
    "update-non-json-index": ["update", "--index", "{notjson}"],
}


@pytest.mark.parametrize("case", sorted(INDEX_ERROR_CASES))
def test_index_command_input_errors_are_one_error_line(tmp_path, case):
    (tmp_path / "query.py").write_text("x = 1\n")
    (tmp_path / "index.json").write_text("not json {")
    paths = {
        "nodir": str(tmp_path / "no-such-dir"),
        "out": str(tmp_path / "out.json"),
        "script": str(tmp_path / "query.py"),
        "missing": str(tmp_path / "missing.json"),
        "notjson": str(tmp_path / "index.json"),
    }
    argv = [arg.format(**paths) for arg in INDEX_ERROR_CASES[case]]
    _fails_cleanly(["index", *argv])


def test_import_cli_does_not_import_the_server():
    import subprocess

    code = "import sys, repro.cli; sys.exit('repro.server' in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
