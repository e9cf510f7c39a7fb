"""Integration tests for the asyncio request engine.

Each test runs a real server (dedicated thread + event loop, unix
socket under ``tmp_path``) and talks to it through the blocking client —
the exact deployment shape of ``repro serve`` / ``repro client``.
"""

import dataclasses
import json
import threading
import time

import pytest

from repro import cli
from repro.corpus import clear_corpus_cache
from repro.server import (
    JobQueue,
    ServerClient,
    ServerConfig,
    ServerError,
    StandardizationServer,
    protocol,
)

from .thread import ServerThread

#: tiny search budget: these tests exercise serving, not search quality
TINY = {"seq": 2, "beam_size": 1, "sample_rows": 50}


@pytest.fixture(autouse=True)
def fresh_state():
    clear_corpus_cache()
    yield
    clear_corpus_cache()


def _server(tmp_path, **overrides):
    return ServerThread(
        ServerConfig(socket_path=str(tmp_path / "repro.sock"), **overrides)
    )


class TestSmoke:
    def test_one_request_and_clean_drain_within_hard_timeout(
        self, tmp_path, diabetes_corpus, alex_script, diabetes_dir
    ):
        """Tier-1 smoke: serve on a unix socket, answer one request,
        drain cleanly — all inside a hard wall-clock budget."""
        started = time.monotonic()
        handle = _server(tmp_path).start(timeout=30.0)
        sock = handle.config.socket_path
        try:
            with ServerClient(socket_path=sock, timeout=60.0) as client:
                assert client.ping()
                result = client.score(
                    script=alex_script, corpus=diabetes_corpus, config=TINY
                )
                assert result["score"] > 0
        finally:
            handle.stop(timeout=30.0)
        assert time.monotonic() - started < 60.0
        import os

        assert not os.path.exists(sock)  # drain unlinked the socket

    def test_tcp_listener(self, diabetes_corpus, alex_script):
        handle = ServerThread(ServerConfig(host="127.0.0.1", port=0)).start()
        try:
            host, port = handle.server.tcp_address
            with ServerClient(host=host, port=port, timeout=60.0) as client:
                result = client.score(
                    script=alex_script, corpus=diabetes_corpus, config=TINY
                )
                assert result["score"] > 0
        finally:
            handle.stop()


class TestControlOps:
    def test_stats_counts_jobs(self, tmp_path, diabetes_corpus, alex_script):
        with _server(tmp_path) as handle:
            with ServerClient(socket_path=handle.config.socket_path) as client:
                client.score(script=alex_script, corpus=diabetes_corpus, config=TINY)
                stats = client.stats()
        assert stats["jobs_total"] == 1
        assert stats["jobs"] == {"score": 1}
        assert stats["admitted"] == 1
        assert stats["warm_misses"] == 1
        assert not {"waves", "coalesced_waves", "coalesced_jobs"} & set(stats)

    def test_unknown_op_is_bad_request(self, tmp_path):
        with _server(tmp_path) as handle:
            with ServerClient(socket_path=handle.config.socket_path) as client:
                response = client.request({"op": "evaporate"})
        assert response["ok"] is False
        assert response["error"]["kind"] == "bad_request"
        assert response["error"]["retryable"] is False

    def test_malformed_line_gets_an_error_not_a_hangup(self, tmp_path):
        with _server(tmp_path) as handle:
            with ServerClient(socket_path=handle.config.socket_path) as client:
                client._sock.sendall(b"this is not json\n")
                response = client._read_response()
                assert response["error"]["kind"] == "bad_request"
                assert client.ping()  # connection survives

    def test_shutdown_op_drains(self, tmp_path):
        handle = _server(tmp_path).start()
        with ServerClient(socket_path=handle.config.socket_path) as client:
            assert client.shutdown()
        handle._thread.join(30.0)
        assert not handle._thread.is_alive()


class TestRequestFraming:
    def test_a_request_line_past_64_kib_is_served(
        self, tmp_path, diabetes_corpus, alex_script
    ):
        """asyncio's default stream limit (64 KiB) no longer caps a line."""
        corpus = [
            f"import pandas as pd\ndf = pd.read_csv('diabetes.csv')\ndf = df.fillna({i})"
            for i in range(1500)
        ] + list(diabetes_corpus)
        message = {"op": "score", "params": {
            "script": alex_script, "corpus": corpus, "config": TINY,
        }}
        assert len(protocol.encode(message)) > 100_000  # 64 KiB is 65,536
        with _server(tmp_path) as handle:
            with ServerClient(socket_path=handle.config.socket_path) as client:
                response = client.request(message)
        assert response["ok"] is True, response
        assert response["result"]["score"] > 0

    def test_an_over_limit_line_is_bad_request_and_serving_goes_on(
        self, tmp_path, monkeypatch, alex_script
    ):
        monkeypatch.setattr(protocol, "MAX_REQUEST_LINE_BYTES", 1024)
        with _server(tmp_path) as handle:
            sock = handle.config.socket_path
            with ServerClient(socket_path=sock) as client:
                response = client.request({"op": "score", "params": {
                    "script": alex_script, "corpus": [alex_script] * 20,
                }})
                assert response["ok"] is False and response["id"] is None
                assert response["error"]["kind"] == "bad_request"
                assert "1024 bytes" in response["error"]["message"]
                with pytest.raises(ConnectionError):
                    client.request({"op": "ping"})  # the server closed it
            with ServerClient(socket_path=sock) as client:
                assert client.ping()
                stats = client.stats()
        assert stats["jobs_total"] == 0

    def test_the_client_command_prints_an_over_limit_error(
        self, tmp_path, monkeypatch, capsys, diabetes_corpus, alex_script
    ):
        monkeypatch.setattr(protocol, "MAX_REQUEST_LINE_BYTES", 1024)
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for position, script in enumerate(diabetes_corpus):
            (corpus_dir / f"s{position}.py").write_text(script)
        user = tmp_path / "user.py"
        user.write_text(alex_script + "\n# " + "x" * 2048)
        with _server(tmp_path) as handle:
            status = cli.main([
                "client", "score", "--socket", handle.config.socket_path,
                "--script", str(user), "--corpus-dir", str(corpus_dir),
            ])
        response = json.loads(capsys.readouterr().out)
        assert status == 1
        assert response["ok"] is False and response["id"] is None
        assert response["error"]["kind"] == "bad_request"
        assert "1024 bytes" in response["error"]["message"]


class TestWarmAndCoalesced:
    def test_same_shape_requests_hit_warm_state(
        self, tmp_path, diabetes_corpus, alex_script
    ):
        with _server(tmp_path) as handle:
            with ServerClient(socket_path=handle.config.socket_path) as client:
                scores = [
                    client.score(
                        script=alex_script, corpus=diabetes_corpus, config=TINY
                    )["score"]
                    for _ in range(4)
                ]
                stats = client.stats()
        assert len(set(scores)) == 1
        assert stats["warm_misses"] == 1  # first request builds
        assert stats["warm_hits"] == 3  # the rest reuse it

    def test_queued_jobs_run_alone_in_arrival_order(
        self, tmp_path, monkeypatch, diabetes_corpus, alex_script, diabetes_dir
    ):
        """Jobs over two corpora queue behind a slow first job; each is
        taken alone, runs on the job thread and is answered in arrival
        order.  The wrappers are the ones perfbench's traced server
        installs."""
        taken, threads = [], []
        take_wave = JobQueue.take_wave
        run_job = StandardizationServer._run_job

        def traced_take_wave(self, max_wave):
            wave = take_wave(self, max_wave)
            if wave:
                taken.append([job.request_id for job in wave])
            return wave

        def traced_run_job(self, job):
            threads.append(threading.current_thread())
            return run_job(self, job)

        monkeypatch.setattr(JobQueue, "take_wave", traced_take_wave)
        monkeypatch.setattr(StandardizationServer, "_run_job", traced_run_job)
        other = [script.replace("SkinThickness", "Glucose") for script in diabetes_corpus]
        slow = {
            "id": 0,
            "op": "standardize",
            "params": {
                "script": alex_script,
                "corpus": diabetes_corpus,
                "data_dir": diabetes_dir,
                "config": TINY,
            },
        }
        queued = [
            {
                "id": position,
                "op": "score",
                "params": {
                    "script": alex_script,
                    "corpus": [diabetes_corpus, other][position % 2],
                    "config": TINY,
                },
            }
            for position in range(1, 6)
        ]
        with _server(tmp_path) as handle:
            with ServerClient(socket_path=handle.config.socket_path) as client:
                client.submit_jobs([slow] + queued)
                # responses in the order they were written
                responses = [client._read_response() for _ in range(6)]
                stats = client.stats()
        assert [r["id"] for r in responses] == list(range(6))
        assert all(r["ok"] for r in responses), responses
        assert taken == [[request_id] for request_id in range(6)]
        assert len(set(threads)) == 1
        assert threads[0].name.startswith("repro-serve-job")
        assert threads[0] is not handle._thread  # not the event loop's
        assert stats["jobs_total"] == 6
        assert stats["queue_peak_depth"] >= 2  # a backlog formed behind job 0

    def test_deadline_expired_job_is_retryable(
        self, tmp_path, diabetes_corpus, alex_script
    ):
        with _server(tmp_path) as handle:
            with ServerClient(socket_path=handle.config.socket_path) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.score(
                        script=alex_script,
                        corpus=diabetes_corpus,
                        config=TINY,
                        deadline_s=1e-7,
                    )
                stats = client.stats()
        assert excinfo.value.kind == "deadline"
        assert excinfo.value.retryable is True
        assert stats["deadline_misses"] == 1

    def test_a_deadline_that_runs_out_during_the_job_is_retryable(
        self, tmp_path, diabetes_corpus, diabetes_dir
    ):
        """The clamped budget stops the input's run: the deadline failed
        the job, so the answer is a retryable ``deadline``, not a
        ``standardization`` error blaming the script."""
        slow = (
            "import pandas as pd\n"
            "df = pd.read_csv('diabetes.csv')\n"
            "for i in range(10**8):\n"
            "    pass"
        )
        with _server(tmp_path) as handle:
            with ServerClient(socket_path=handle.config.socket_path) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.standardize(
                        script=slow,
                        corpus=diabetes_corpus,
                        data_dir=diabetes_dir,
                        config=TINY,
                        deadline_s=0.2,
                    )
                stats = client.stats()
        assert excinfo.value.kind == "deadline"
        assert excinfo.value.retryable is True
        assert stats["deadline_misses"] == 1
        assert "standardization" not in stats["errors"]

    def test_a_deadline_above_the_timer_limit_answers_ok(
        self, tmp_path, monkeypatch, diabetes_corpus, alex_script, diabetes_dir
    ):
        """The SLA clamp copies what is left of the deadline into every
        sandboxed run's budget; a budget longer than ``threading.Timer``
        can wait arms the longest wait it can, with no thread error."""
        errors = []
        monkeypatch.setattr(
            threading, "excepthook", lambda args: errors.append(args.exc_type)
        )
        with _server(tmp_path) as handle:
            with ServerClient(socket_path=handle.config.socket_path) as client:
                result = client.standardize(
                    script=alex_script,
                    corpus=diabetes_corpus,
                    data_dir=diabetes_dir,
                    config=TINY,
                    deadline_s=1e308,
                )
        assert result["re_after"] <= result["re_before"]
        assert errors == []

    @pytest.mark.parametrize("deadline", ["NaN", "Infinity", "true"])
    def test_deadline_must_be_a_finite_positive_number(
        self, tmp_path, diabetes_corpus, alex_script, deadline
    ):
        """JSON parses NaN and Infinity, and true is an int to Python; each
        would mark the job deadline-clamped, so the audit would skip it."""
        params = {"script": alex_script, "corpus": diabetes_corpus, "config": TINY}
        line = '{"id": 1, "op": "score", "params": %s, "deadline_s": %s}\n' % (
            json.dumps(params),
            deadline,
        )
        with _server(tmp_path) as handle:
            with ServerClient(socket_path=handle.config.socket_path) as client:
                client._sock.sendall(line.encode())
                response = client._read_response()
                stats = client.stats()
        assert response["id"] == 1
        assert response["error"]["kind"] == "bad_request"
        assert response["error"]["retryable"] is False
        assert response["error"]["message"].startswith(
            "deadline_s must be a finite positive number"
        )
        assert stats["admitted"] == 0


class TestServerConfig:
    def test_has_no_wave_knobs(self):
        names = [spec.name for spec in dataclasses.fields(ServerConfig)]
        assert len(names) == 8
        assert "wave_limit" not in names and "stats_window" not in names

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, 0, -1.0])
    def test_default_deadline_must_be_a_finite_positive_number(self, value):
        with pytest.raises(ValueError, match="default_deadline_s"):
            ServerConfig(socket_path="unused.sock", default_deadline_s=value)

    def test_server_thread_leaves_the_callers_config_alone(self, tmp_path):
        config = ServerConfig(socket_path=str(tmp_path / "repro.sock"))
        handle = ServerThread(config)
        assert config.install_signal_handlers is True
        assert handle.config.install_signal_handlers is False
        assert handle.config.socket_path == config.socket_path


class TestErrorVerdicts:
    def test_wrongly_typed_config_is_bad_request_at_admission(
        self, tmp_path, diabetes_corpus, alex_script, diabetes_dir
    ):
        with _server(tmp_path) as handle:
            with ServerClient(socket_path=handle.config.socket_path) as client:
                response = client.request(
                    {
                        "op": "standardize",
                        "params": {
                            "script": alex_script,
                            "corpus": diabetes_corpus,
                            "data_dir": diabetes_dir,
                            "config": {**TINY, "seq": 2.5},
                        },
                    }
                )
                stats = client.stats()
        assert response["error"]["kind"] == "bad_request"
        assert response["error"]["message"] == (
            "invalid config: seq must be an integer, got 2.5"
        )
        assert stats["admitted"] == 0

    def test_missing_script_is_bad_request(self, tmp_path, diabetes_corpus):
        with _server(tmp_path) as handle:
            with ServerClient(socket_path=handle.config.socket_path) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.score(corpus=diabetes_corpus)
        assert excinfo.value.kind == "bad_request"
        assert excinfo.value.retryable is False

    def test_unparseable_input_script_is_bad_request(
        self, tmp_path, diabetes_corpus
    ):
        with _server(tmp_path) as handle:
            with ServerClient(socket_path=handle.config.socket_path) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.score(
                        script="not python (((", corpus=diabetes_corpus, config=TINY
                    )
        assert excinfo.value.kind == "bad_request"

    def test_lone_surrogate_in_input_script_is_bad_request(
        self, tmp_path, diabetes_corpus, alex_script
    ):
        """Text that cannot be encoded as UTF-8 fails to parse, for every
        op, instead of escaping as an internal error."""
        script = alex_script + "\ndf['note'] = 'caf\udc80'\n"
        with _server(tmp_path) as handle:
            with ServerClient(socket_path=handle.config.socket_path) as client:
                for op in ("score", "standardize"):
                    response = client.request(
                        {
                            "op": op,
                            "params": {
                                "script": script,
                                "corpus": diabetes_corpus,
                                "config": TINY,
                            },
                        }
                    )
                    assert not response["ok"], response
                    assert response["error"]["kind"] == "bad_request"
                    assert response["error"]["message"].startswith(
                        "input script failed to parse"
                    )
                    assert "\\udc80" in response["error"]["message"]

    def test_lone_surrogate_in_corpus_script_is_skipped(
        self, tmp_path, diabetes_corpus, alex_script
    ):
        broken = diabetes_corpus[0] + "\ndf['note'] = 'caf\udc80'\n"
        with _server(tmp_path) as handle:
            with ServerClient(socket_path=handle.config.socket_path) as client:
                with_broken = client.score(
                    script=alex_script, corpus=diabetes_corpus + [broken], config=TINY
                )
                inline = client.score(
                    script=alex_script, corpus=diabetes_corpus, config=TINY
                )
                with pytest.raises(ServerError) as excinfo:
                    client.score(script=alex_script, corpus=[broken], config=TINY)
        assert with_broken == inline
        assert excinfo.value.kind == "bad_request"
        assert str(excinfo.value).startswith("corpus failed to curate")

    def test_corpus_dir_skips_a_malformed_notebook(
        self, tmp_path, diabetes_corpus, alex_script
    ):
        """A corpus file that parses as JSON but is not a notebook is
        skipped like any other broken corpus file."""
        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for position, script in enumerate(diabetes_corpus):
            (corpus_dir / f"peer_{position}.py").write_text(script)
        (corpus_dir / "bad.ipynb").write_text('{"cells": [1]}')
        with _server(tmp_path) as handle:
            with ServerClient(socket_path=handle.config.socket_path) as client:
                response = client.request(
                    {
                        "op": "score",
                        "params": {
                            "script": alex_script,
                            "corpus_dir": str(corpus_dir),
                            "config": TINY,
                        },
                    }
                )
                inline = client.score(
                    script=alex_script, corpus=diabetes_corpus, config=TINY
                )
        assert response["ok"], response
        assert response["result"] == inline

    def test_audit_mode_serves_verified_results(
        self, tmp_path, diabetes_corpus, alex_script, diabetes_dir
    ):
        """verify_server end to end: the response only ships after a cold
        process replayed it byte-identically — also for a corpus named by
        an index snapshot, a retrieval pool, and both together."""
        from repro.corpus import CorpusIndex, save_index

        corpus_dir = tmp_path / "corpus"
        corpus_dir.mkdir()
        for position, script in enumerate(diabetes_corpus):
            (corpus_dir / f"peer_{position}.py").write_text(script + "\n")
        snapshot = str(tmp_path / "index.json")
        index = CorpusIndex()
        index.refresh(str(corpus_dir))
        save_index(index, snapshot)
        with _server(tmp_path, audit=True) as handle:
            with ServerClient(
                socket_path=handle.config.socket_path, timeout=300.0
            ) as client:
                result = client.score(
                    script=alex_script, corpus=diabetes_corpus, config=TINY
                )
                scores = [
                    client.score(script=alex_script, index=snapshot, config=TINY),
                    client.score(
                        script=alex_script, corpus=diabetes_corpus,
                        retrieve_k=2, config=TINY,
                    ),
                ]
                standardized = client.standardize(
                    script=alex_script, index=snapshot, corpus_dir=str(corpus_dir),
                    retrieve_k=2, data_dir=diabetes_dir, config=TINY,
                )
                stats = client.stats()
        assert result["score"] > 0
        assert scores[0] == result
        assert scores[1]["score"] > 0
        assert standardized["output_script"]
        assert stats["audits"] == 4
        assert stats["audit_failures"] == 0
