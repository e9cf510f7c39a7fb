"""Serving throughput: warm request engine vs cold per-request processes.

The server's pitch is that one-shot CLI economics are wrong for a
standing standardization service: every request pays interpreter start,
imports and corpus curation, then throws the warm state away.  This
benchmark races the two deployment shapes over the same
mixed 50-request workload (score / standardize / explain /
detect_leakage across two corpora):

- **cold** — each request runs ``python -m repro.server.oneshot`` in a
  fresh process, the per-request cost a CLI user pays today;
- **warm** — all requests pipelined over one socket to a live
  :class:`~repro.server.StandardizationServer`, which coalesces
  same-corpus jobs into shared dispatch waves against registry-pinned
  systems.

Correctness gates before any speed number counts: every cold response
doubles as the ``verify_server`` ground truth, and every warm response
must match it byte-for-byte on the deterministic payload
(:func:`repro.server.protocol.parity_payload`).  A speedup over a wrong
answer is worthless, so parity is asserted for all 50 requests.

Results go to ``benchmarks/results/`` and the machine-readable numbers
to the repo-root ``BENCH_server.json``.  Acceptance bar: ≥3x sustained
warm requests/sec over the cold per-process baseline.
"""

import json
import os
import random
import shutil
import tempfile
import time

import pytest

from repro.corpus import clear_corpus_cache
from repro.harness import render_table
from repro.server import ServerClient, ServerConfig, ServerThread
from repro.server.jobs import normalize_job
from repro.server.oneshot import run_oneshot_process
from repro.server.protocol import canonical, parity_payload

from _shared import bench_environment, publish

pytestmark = pytest.mark.perf

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_server.json")

N_REQUESTS = 50
#: tiny search budget — the benchmark measures *serving* overhead
#: (process launch, curation, dispatch), not beam-search wall-clock
TINY = {"seq": 2, "beam_size": 1, "sample_rows": 50}

CORPUS_A = [
    "import pandas as pd\n"
    "df = pd.read_csv('diabetes.csv')\n"
    "df = df.fillna(df.mean())\n"
    "df = pd.get_dummies(df)",
    "import pandas as pd\n"
    "train = pd.read_csv('diabetes.csv')\n"
    "train = train.fillna(train.mean())\n"
    "train = pd.get_dummies(train)",
]
CORPUS_B = [
    "import pandas as pd\n"
    "df = pd.read_csv('diabetes.csv')\n"
    "df = df.dropna()\n"
    "df = df.drop_duplicates()\n"
    "df = pd.get_dummies(df)",
    "import pandas as pd\n"
    "data = pd.read_csv('diabetes.csv')\n"
    "data = data.dropna()\n"
    "data = data.drop_duplicates()\n"
    "data = pd.get_dummies(data)",
]
INPUT_SCRIPT = (
    "import pandas as pd\n"
    "df = pd.read_csv('diabetes.csv')\n"
    "df = df.fillna(df.median())\n"
    "df = pd.get_dummies(df)"
)


def _write_data(directory):
    rng = random.Random(7)
    rows = ["Glucose,Age,Outcome"]
    for _ in range(60):
        age = rng.randrange(-3, 80)
        rows.append(
            f"{rng.randrange(70, 200)},{age if age > 0 else ''},{rng.randrange(2)}"
        )
    with open(os.path.join(directory, "diabetes.csv"), "w") as handle:
        handle.write("\n".join(rows) + "\n")


def _workload(data_dir):
    """The mixed 50-request workload: ~60% score, the rest search ops,
    alternating between two corpora so waves and warm entries interleave."""
    corpora = [CORPUS_A, CORPUS_B]
    ops = ["score", "score", "score", "standardize", "explain", "detect_leakage"]
    requests = []
    for position in range(N_REQUESTS):
        op = ops[position % len(ops)]
        params = {
            "script": INPUT_SCRIPT,
            "corpus": corpora[position % 2],
            "config": dict(TINY),
        }
        if op != "score":
            params["data_dir"] = data_dir
        requests.append({"id": position, "op": op, "params": params})
    return requests


def test_perf_server_throughput():
    clear_corpus_cache()
    work_dir = tempfile.mkdtemp(prefix="repro-bench-server-")
    try:
        _write_data(work_dir)
        requests = _workload(work_dir)

        # ------------------------------------------- cold: process per request
        # (each response doubles as the verify_server audit ground truth)
        cold_responses = []
        started = time.perf_counter()
        for message in requests:
            job = normalize_job(message)
            cold_responses.append(
                run_oneshot_process(job, request_id=message["id"])
            )
        cold_s = time.perf_counter() - started

        # --------------------------------------------- warm: one live server
        sock = os.path.join(work_dir, "repro.sock")
        with ServerThread(ServerConfig(socket_path=sock)) as handle:
            with ServerClient(socket_path=sock, timeout=600.0) as client:
                client.ping()  # connection established outside the clock
                started = time.perf_counter()
                ids = client.submit_jobs(requests)
                warm_responses = client.collect_jobs(ids)
                warm_s = time.perf_counter() - started
                stats = client.stats()

        # ------------------------------------------------- correctness gates
        assert all(response["ok"] for response in warm_responses)
        mismatches = [
            message["id"]
            for message, warm, cold in zip(requests, warm_responses, cold_responses)
            if canonical(parity_payload(warm)) != canonical(parity_payload(cold))
        ]
        assert mismatches == [], f"warm/cold divergence on requests {mismatches}"

        cold_rps = N_REQUESTS / cold_s
        warm_rps = N_REQUESTS / warm_s
        speedup = warm_rps / cold_rps
        report = {
            "workload": {
                "requests": N_REQUESTS,
                "corpora": 2,
                "ops": ["score", "standardize", "explain", "detect_leakage"],
                "config": TINY,
            },
            "cold_total_s": round(cold_s, 3),
            "warm_total_s": round(warm_s, 3),
            "cold_requests_per_s": round(cold_rps, 2),
            "warm_requests_per_s": round(warm_rps, 2),
            "warm_over_cold_speedup": round(speedup, 2),
            "audited_requests": N_REQUESTS,
            "audit_mismatches": 0,
            "server_stats": {
                "waves": stats["waves"],
                "coalesced_waves": stats["coalesced_waves"],
                "coalesced_jobs": stats["coalesced_jobs"],
                "warm_hits": stats["warm_hits"],
                "warm_misses": stats["warm_misses"],
                "latency_p50_ms": stats["latency_p50_ms"],
                "latency_p95_ms": stats["latency_p95_ms"],
                "queue_peak_depth": stats["queue_peak_depth"],
            },
            "environment": bench_environment(),
        }
        with open(BENCH_JSON, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")

        publish(
            "perf_server",
            render_table(
                ["deployment", "total (s)", "req/s"],
                [
                    [
                        "cold: process per request",
                        f"{cold_s:.2f}",
                        f"{cold_rps:.2f}",
                    ],
                    [
                        "warm: pipelined server",
                        f"{warm_s:.2f}",
                        f"{warm_rps:.2f}",
                    ],
                ],
                title=(
                    f"Mixed {N_REQUESTS}-request workload, every response "
                    f"audited bit-identical: {speedup:.1f}x"
                ),
            )
            + (
                f"\nwaves={stats['waves']} "
                f"(coalesced={stats['coalesced_waves']}, "
                f"jobs sharing a wave={stats['coalesced_jobs']}), "
                f"warm hits={stats['warm_hits']}/"
                f"{stats['warm_hits'] + stats['warm_misses']}, "
                f"p50={stats['latency_p50_ms']}ms "
                f"p95={stats['latency_p95_ms']}ms"
                f"\n[recorded in {BENCH_JSON}]"
            ),
        )

        # warm reuse must actually be happening, not 50 cold builds inside
        # the server
        assert stats["warm_hits"] >= N_REQUESTS - 12, report
        # the acceptance bar: sustained warm throughput ≥3x the cold
        # per-request process baseline
        assert speedup >= 3.0, report
    finally:
        clear_corpus_cache()
        shutil.rmtree(work_dir, ignore_errors=True)
