"""Sandbox execution-engine throughput: cold vs incremental.

A beam-search-shaped workload — waves of candidate scripts sharing a long
statement prefix and differing in their suffix, exactly what
``GetTopKBeams`` produces — checked two ways:

* **cold** — ``check_executes`` re-runs every candidate from line 1;
* **incremental** — ``IncrementalExecutor`` resumes each candidate from
  the longest snapshotted prefix (the hardware-independent win).

Results are published to ``benchmarks/results/`` and the machine-readable
speedups to the repo-root ``BENCH_sandbox.json``.  The acceptance bar: the
incremental path is at least 2x faster (median wave) than cold execution.
"""

import dataclasses
import json
import os
import statistics
import time

import numpy as np
import pytest

import repro.minipandas as mp
from repro.harness import render_table
from repro.sandbox import IncrementalExecutor, check_executes

from _shared import bench_environment, publish

pytestmark = pytest.mark.perf

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_sandbox.json")

ROUNDS = 5
SAMPLE_ROWS = 200

PREFIX = (
    "import pandas as pd\n"
    "df = pd.read_csv('bench.csv')\n"
    "df = df.fillna(df.mean())\n"
    "df = df[df['B'] < 150]\n"
    "df = df.drop_duplicates()\n"
    "df = df.reset_index()"
)

#: One beam wave: candidate extensions of the shared prefix (the mix of
#: valid and failing suffixes mirrors what the search actually checks).
SUFFIXES = [
    "df = df.dropna()",
    "df = pd.get_dummies(df)",
    "df = df.drop('A', axis=1)",
    "df = df.drop('NoSuchColumn', axis=1)",
    "df = df[df['C'] > 10]",
    "df = df.sort_values('B')",
    "df = df.rename(columns={'A': 'a'})",
    "df = df[df['Missing'] > 0]",
    "df = df.fillna(0)",
    "df = df.drop('C', axis=1)",
]


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("sandbox-bench")
    rng = np.random.default_rng(11)
    n = 4000
    frame = mp.DataFrame(
        {
            "A": rng.integers(0, 12, n).tolist(),
            "B": rng.normal(120, 30, n).round(1).tolist(),
            "C": [int(v) if v > 0 else None for v in rng.integers(-3, 80, n)],
            "D": rng.normal(0, 1, n).round(3).tolist(),
        }
    )
    frame.to_csv(str(root / "bench.csv"))
    return str(root)


def _wave_sources():
    return [f"{PREFIX}\n{suffix}" for suffix in SUFFIXES]


def test_perf_sandbox_engines(bench_dir):
    sources = _wave_sources()

    # warm the CSV parse cache once so all three engines start even
    check_executes(sources[0], data_dir=bench_dir, sample_rows=SAMPLE_ROWS)

    cold_waves = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        cold_verdicts = [
            check_executes(s, data_dir=bench_dir, sample_rows=SAMPLE_ROWS)
            for s in sources
        ]
        cold_waves.append(time.perf_counter() - started)

    executor = IncrementalExecutor(data_dir=bench_dir, sample_rows=SAMPLE_ROWS)
    incremental_waves = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        incremental_verdicts = [executor.check_executes(s) for s in sources]
        incremental_waves.append(time.perf_counter() - started)

    # both engines must agree before any speed claim counts
    assert incremental_verdicts == cold_verdicts

    cold_ms = statistics.median(cold_waves) * 1000
    incremental_ms = statistics.median(incremental_waves) * 1000
    incremental_speedup = cold_ms / incremental_ms

    report = {
        "workload": {
            "wave_size": len(sources),
            "rounds": ROUNDS,
            "prefix_statements": PREFIX.count("\n") + 1,
            "sample_rows": SAMPLE_ROWS,
            "csv_rows": 4000,
        },
        "median_wave_ms": {
            "cold": round(cold_ms, 3),
            "incremental": round(incremental_ms, 3),
        },
        "speedup_vs_cold": {
            "incremental": round(incremental_speedup, 2),
        },
        "incremental_stats": dataclasses.asdict(executor.stats),
        "environment": bench_environment(),
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    publish(
        "perf_sandbox_engines",
        render_table(
            ["engine", "median wave (ms)", "speedup vs cold"],
            [
                ["cold check_executes", f"{cold_ms:.1f}", "1.0x"],
                ["incremental prefix-resume", f"{incremental_ms:.1f}",
                 f"{incremental_speedup:.1f}x"],
            ],
            title=(
                "Sandbox engines on a beam-shaped wave "
                f"({len(sources)} candidates, shared {PREFIX.count(chr(10)) + 1}"
                "-statement prefix)"
            ),
        )
        + f"\n[speedups recorded in {BENCH_JSON}]",
    )

    # the acceptance bar: resuming shared prefixes at least halves the
    # median wave latency relative to cold re-execution
    assert incremental_speedup >= 2.0, report["speedup_vs_cold"]
    assert executor.stats.prefix_hits > 0


def test_perf_incremental_verified_against_cold(bench_dir):
    """Self-audit: verify-mode cross-checks every wave result against a
    cold run and raises on a divergence; zero fallbacks means no
    snapshot failed its fingerprint check either."""
    executor = IncrementalExecutor(
        data_dir=bench_dir, sample_rows=SAMPLE_ROWS, verify=True
    )
    for source in _wave_sources():
        executor.check_executes(source)
    assert executor.stats.fallbacks == 0
