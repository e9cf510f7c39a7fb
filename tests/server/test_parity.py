"""Request-path parity: warm server responses == serial one-shot runs.

The server's contract is that warmth is invisible: N interleaved jobs —
mixed ops, shared and distinct corpora, coalesced into waves against
registry-pinned systems — must produce byte-identical canonical JSON to
running each job alone against empty caches.
"""

import pytest

from repro.core.intent import ACCURACY_CACHE
from repro.corpus import clear_corpus_cache
from repro.server import ServerClient, ServerConfig, ServerThread
from repro.server.jobs import normalize_job
from repro.server.oneshot import run_oneshot
from repro.server.protocol import canonical, parity_payload

TINY = {"seq": 2, "beam_size": 1, "sample_rows": 50}

#: The running example filters Age to 18-25, which leaves too few rows at
#: 50 sampled to train the τ_M model on; this input keeps enough.
TAU_M_SCRIPT = (
    "import pandas as pd\n"
    "df = pd.read_csv('diabetes.csv')\n"
    "df = df.fillna(df.median())\n"
    "df = df[df['Age'] > 20]\n"
    "df = pd.get_dummies(df)"
)


@pytest.fixture(autouse=True)
def fresh_state():
    clear_corpus_cache()
    ACCURACY_CACHE.clear()
    yield
    clear_corpus_cache()
    ACCURACY_CACHE.clear()


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
    # under τ_M: the warm server trains on each table once, so later jobs
    # read the process-wide accuracy memo
    for position in range(12, 18):
        op = ["standardize", "explain", "detect_leakage"][position % 3]
        params = {
            "script": TAU_M_SCRIPT,
            "corpus": corpora[position % 2],
            "config": dict(TINY),
            "data_dir": diabetes_dir,
            "target": "Outcome",
            "tau_m": 50.0,
        }
        requests.append({"id": position, "op": op, "params": params})
    return requests


def _cold_replay(message):
    """One job, serially, against empty caches — the ground truth."""
    job = normalize_job(message)
    clear_corpus_cache()
    ACCURACY_CACHE.clear()
    return run_oneshot(job, request_id=message["id"])


class TestInterleavedParity:
    def test_mixed_pipelined_jobs_match_serial_oneshot(
        self, tmp_path, diabetes_corpus, alex_script, diabetes_dir
    ):
        requests = _mixed_requests(diabetes_corpus, alex_script, diabetes_dir)
        config = ServerConfig(socket_path=str(tmp_path / "repro.sock"))
        memo_hits = ACCURACY_CACHE.hits
        with ServerThread(config) as handle:
            with ServerClient(
                socket_path=handle.config.socket_path, timeout=600.0
            ) as client:
                ids = client.submit_jobs(requests)
                warm = client.collect_jobs(ids)
                stats = client.stats()
        # the run actually exercised warm reuse, not 18 cold builds
        assert stats["warm_hits"] > 0
        tau_m = [response["result"] for response in warm[12:]]
        assert any(result["output_script"] != TAU_M_SCRIPT for result in tau_m)
        assert ACCURACY_CACHE.hits > memo_hits
        for message, response in zip(requests, warm):
            cold = _cold_replay(message)
            assert canonical(parity_payload(response)) == canonical(
                parity_payload(cold)
            ), f"request {message['id']} ({message['op']}) diverged"

