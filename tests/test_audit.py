"""One audit switch, one mismatch error, one outcome on every surface.

``LSConfig(audit=True)`` runs each layer's naive oracle beside its fast
path.  A divergence planted in any one layer (``scoring``, ``intent``,
``index``, ``retrieval``, ``kernel``, ``sandbox``) must fail the call with
:class:`AuditMismatchError` naming that layer, and the same plant must
pass unnoticed with the audit off.  Through the CLI a mismatch is one
``error:`` line and exit status 1; through the server it is an
``audit_mismatch`` response.  Inside a sandboxed script a kernel
mismatch is the engine's fault, so it fails the call, not the script.
"""

import pytest

from repro.cli import main
from repro.core import (
    AuditMismatchError,
    LSConfig,
    LucidScript,
    StandardizationResult,
    TableJaccardIntent,
)
from repro.core.entropy import RelativeEntropyScorer
from repro.core.intent import PreparedTableJaccard
from repro.corpus import CorpusIndex, RetrievalIndex
from repro.minipandas import kernel_audit, kernels
from repro.sandbox import IncrementalExecutor, run_script
from repro.server import ServerClient, ServerConfig

from .server.thread import ServerThread

#: a search small enough to be quick that still checks intent on
#: candidates other than the original
SEARCH = {"seq": 4, "beam_size": 2, "sample_rows": 150}
TAU_J = 0.5
#: the retrieval layer runs on a pool of the corpus, whose three scripts
#: are two distinct lemmas
RETRIEVE_K = 2
LAYERS = ("scoring", "intent", "index", "retrieval", "kernel", "sandbox")


def _skew(cls, name, monkeypatch, skew):
    real = getattr(cls, name)
    monkeypatch.setattr(cls, name, lambda self, *args: skew(real(self, *args)))


def _one_more_ngram(vocabulary):
    vocabulary.ngram_counts[next(iter(vocabulary.ngram_counts))] += 1
    return vocabulary


def _one_row_fewer(result):
    if result.ok and result.output is not None and len(result.output):
        result.output = result.output.head(len(result.output) - 1)
    return result


def plant(layer, monkeypatch):
    """Make *layer*'s fast path diverge from its oracle."""
    if layer == "scoring":
        _skew(RelativeEntropyScorer, "score_delta", monkeypatch, lambda s: s + 1e-9)
    elif layer == "intent":
        _skew(PreparedTableJaccard, "_prepared_delta", monkeypatch, lambda d: d + 1e-9)
    elif layer == "index":
        _skew(CorpusIndex, "to_vocabulary", monkeypatch, _one_more_ngram)
    elif layer == "retrieval":
        _skew(RetrievalIndex, "_similarities", monkeypatch, lambda s: s + 1e-9)
    elif layer == "sandbox":
        _skew(IncrementalExecutor, "_execute_suffix", monkeypatch, _one_row_fewer)
    else:
        monkeypatch.setattr(kernels, "_results_match", lambda a, b: False)


def standardize(layer, audit, corpus, script, data_dir):
    """``standardize()`` with *layer*'s audit on or off; the index audit
    fails at construction, the others inside the call."""
    if layer == "retrieval":
        corpus = RetrievalIndex.from_scripts(corpus)
    system = LucidScript(
        corpus,
        data_dir=data_dir,
        intent=TableJaccardIntent(tau=TAU_J),
        config=LSConfig(audit=audit, retrieval_k=RETRIEVE_K, **SEARCH),
    )
    return system.standardize(script)


# ------------------------------------------------------------------ library
class TestLibrary:
    @pytest.mark.parametrize("layer", LAYERS)
    def test_a_planted_divergence_fails_with_its_layer(
        self, layer, monkeypatch, diabetes_corpus, alex_script, diabetes_dir
    ):
        plant(layer, monkeypatch)
        with pytest.raises(AuditMismatchError) as caught:
            standardize(layer, True, diabetes_corpus, alex_script, diabetes_dir)
        assert caught.value.layer == layer
        assert str(caught.value) == f"{layer}: {caught.value.detail}"

    @pytest.mark.parametrize("layer", LAYERS)
    def test_the_same_plant_passes_unaudited(
        self, layer, monkeypatch, diabetes_corpus, alex_script, diabetes_dir
    ):
        plant(layer, monkeypatch)
        result = standardize(layer, False, diabetes_corpus, alex_script, diabetes_dir)
        assert isinstance(result, StandardizationResult)

    def test_the_error_is_none_of_the_errors_the_search_skips(self):
        from repro.lang import ScriptError
        from repro.ml import DownstreamEvaluationError

        for caught in (ValueError, TypeError, ScriptError, DownstreamEvaluationError):
            assert not issubclass(AuditMismatchError, caught)

    def test_the_removed_fields_are_gone(self):
        for name in (
            "verify_scoring", "verify_intent", "verify_index",
            "verify_retrieval", "verify_kernels",
        ):
            with pytest.raises(TypeError):
                LSConfig(**{name: True})


# ------------------------------------------------------------------ sandbox
def cold(source, data_dir):
    return run_script(source, data_dir=data_dir)


def incremental(source, data_dir):
    return IncrementalExecutor(data_dir=data_dir).run_script(source)


class TestKernelAuditInTheSandbox:
    """A kernel mismatch inside a script is not the script's failure."""

    SCRIPT = "import pandas as pd\ndf = pd.read_csv('diabetes.csv')\ndf = df.fillna(0)"
    #: a script can reach the class itself, through __subclasses__
    RAISES_THE_CLASS = (
        "cls = [c for c in RuntimeError.__subclasses__()"
        " if c.__name__ == 'AuditMismatchError'][0]\n"
        "raise cls('kernel', 'raised by the script')"
    )

    @pytest.mark.parametrize("runner", [cold, incremental])
    def test_a_kernel_mismatch_propagates(self, runner, monkeypatch, diabetes_dir):
        plant("kernel", monkeypatch)
        with kernel_audit(), pytest.raises(AuditMismatchError) as caught:
            runner(self.SCRIPT, diabetes_dir)
        assert caught.value.layer == "kernel"

    @pytest.mark.parametrize("runner", [cold, incremental])
    def test_a_script_raising_the_class_fails_with_the_audit_off(
        self, runner, diabetes_dir
    ):
        result = runner(self.RAISES_THE_CLASS, diabetes_dir)
        assert not result.ok
        assert result.error_type == "AuditMismatchError"
        assert result.error_line == 2


# ---------------------------------------------------------------------- CLI
class TestCli:
    @pytest.mark.parametrize("layer", LAYERS)
    def test_a_mismatch_is_one_error_line_and_status_1(
        self, layer, tmp_path, monkeypatch, diabetes_corpus, alex_script,
        diabetes_dir, capsys,
    ):
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for position, peer in enumerate(diabetes_corpus):
            (corpus_dir / f"peer_{position}.py").write_text(peer + "\n")
        script = tmp_path / "alex.py"
        script.write_text(alex_script + "\n")
        retrieve = ["--retrieve-k", str(RETRIEVE_K)] if layer == "retrieval" else []
        plant(layer, monkeypatch)
        status = main([
            "standardize", "--script", str(script), "--corpus-dir", str(corpus_dir),
            "--data-dir", diabetes_dir, "--tau-j", str(TAU_J), "--seq", "4",
            "--beam-size", "2", "--sample-rows", "150", "--audit", *retrieve,
        ])
        out, err = capsys.readouterr()
        assert status == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {layer}: ")

    def test_the_removed_flag_is_a_usage_error(self, tmp_path, alex_script, capsys):
        script = tmp_path / "alex.py"
        script.write_text(alex_script + "\n")
        with pytest.raises(SystemExit) as caught:
            main([
                "score", "--script", str(script), "--corpus-dir", str(tmp_path),
                "--verify-retrieval",
            ])
        assert caught.value.code == 2
        assert "unrecognized arguments: --verify-retrieval" in capsys.readouterr().err


# ------------------------------------------------------------------- server
def _serve(tmp_path, message):
    config = ServerConfig(socket_path=str(tmp_path / "repro.sock"))
    with ServerThread(config):
        with ServerClient(socket_path=config.socket_path, timeout=120.0) as client:
            return client.request(message)


class TestServer:
    @pytest.mark.parametrize("layer", LAYERS)
    def test_a_mismatch_answers_audit_mismatch(
        self, layer, tmp_path, monkeypatch, diabetes_corpus, alex_script, diabetes_dir
    ):
        """The index audit fails while the warm registry builds the
        system, the others while the job runs."""
        plant(layer, monkeypatch)
        response = _serve(tmp_path, {
            "op": "standardize",
            "params": {
                "script": alex_script, "corpus": diabetes_corpus,
                "data_dir": diabetes_dir, "tau_j": TAU_J,
                "retrieve_k": RETRIEVE_K if layer == "retrieval" else None,
                "config": {"audit": True, **SEARCH},
            },
        })
        assert response["error"]["kind"] == "audit_mismatch"
        assert response["error"]["message"].startswith(f"{layer}: ")

    def test_a_removed_field_is_a_bad_request(
        self, tmp_path, diabetes_corpus, alex_script
    ):
        response = _serve(tmp_path, {
            "op": "score",
            "params": {
                "script": alex_script, "corpus": diabetes_corpus,
                "config": {"verify_index": True, "verify_scoring": True},
            },
        })
        assert response["error"] == {
            "kind": "bad_request",
            "message": "unknown config fields: verify_index, verify_scoring",
            "retryable": False,
        }
