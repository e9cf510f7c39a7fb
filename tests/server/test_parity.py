"""Request-path parity: warm server responses == serial one-shot runs.

The server's contract is that warmth is invisible: N interleaved jobs —
mixed ops, shared and distinct corpora, coalesced into waves against
registry-pinned systems — must produce byte-identical canonical JSON to
running each job alone against empty caches.
"""

import pytest

from repro.corpus import clear_corpus_cache
from repro.server import ServerClient, ServerConfig, ServerThread
from repro.server.jobs import normalize_job
from repro.server.oneshot import run_oneshot
from repro.server.protocol import canonical, parity_payload

TINY = {"seq": 2, "beam_size": 1, "sample_rows": 50}


@pytest.fixture(autouse=True)
def fresh_state():
    clear_corpus_cache()
    yield
    clear_corpus_cache()


def _variant_corpus(diabetes_corpus):
    """A second, distinct corpus (different content address)."""
    return [script.replace("SkinThickness", "Glucose") for script in diabetes_corpus]


def _mixed_requests(diabetes_corpus, alex_script, diabetes_dir):
    corpora = [diabetes_corpus, _variant_corpus(diabetes_corpus)]
    requests = []
    for position in range(12):
        corpus = corpora[position % 2]
        op = ["score", "standardize", "explain", "detect_leakage"][position % 4]
        params = {"script": alex_script, "corpus": corpus, "config": dict(TINY)}
        if op != "score":
            params["data_dir"] = diabetes_dir
        requests.append({"id": position, "op": op, "params": params})
    return requests


def _cold_replay(message):
    """One job, serially, against empty caches — the ground truth."""
    job = normalize_job(message)
    clear_corpus_cache()
    return run_oneshot(job, request_id=message["id"])


class TestInterleavedParity:
    def test_mixed_pipelined_jobs_match_serial_oneshot(
        self, tmp_path, diabetes_corpus, alex_script, diabetes_dir
    ):
        requests = _mixed_requests(diabetes_corpus, alex_script, diabetes_dir)
        config = ServerConfig(socket_path=str(tmp_path / "repro.sock"))
        with ServerThread(config) as handle:
            with ServerClient(
                socket_path=handle.config.socket_path, timeout=600.0
            ) as client:
                ids = client.submit_jobs(requests)
                warm = client.collect_jobs(ids)
                stats = client.stats()
        # the run actually exercised warm reuse, not 12 cold builds
        assert stats["warm_hits"] > 0
        for message, response in zip(requests, warm):
            cold = _cold_replay(message)
            assert canonical(parity_payload(response)) == canonical(
                parity_payload(cold)
            ), f"request {message['id']} ({message['op']}) diverged"

