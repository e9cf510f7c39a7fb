"""Corpus-index throughput: cold offline phase vs incremental refresh.

A standing-corpus workload — ~60 distinct preparation scripts on disk,
one of which just changed — run through the cold path
(``CorpusVocabulary.from_scripts`` reparses everything, with the
process-wide lang memos cleared first, as in a fresh process) and the
incremental path (:class:`repro.corpus.CorpusIndex` stat-scans the
directory, reparses exactly the changed file, and re-derives only the
touched statistics).  Bit-identity of the resulting vocabulary is
audited (``CorpusIndex.verify``) before any speed number counts.

Results are published to ``benchmarks/results/`` and the machine-
readable speedup to the repo-root ``BENCH_corpus.json``.  The acceptance
bar: the warm refresh after a single-file edit reparses exactly one
script and beats the cold rebuild by at least 10x.
"""

import json
import os
import random
import shutil
import statistics
import tempfile
import time

import pytest

from repro.corpus import CorpusIndex
from repro.harness import render_table
from repro.lang import CorpusVocabulary
from repro.lang.lemmatize import LEMMA_CACHE
from repro.lang.parser import STATEMENT_CACHE

from _shared import bench_environment, publish

pytestmark = pytest.mark.perf

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_corpus.json")

ROUNDS = 3
N_SCRIPTS = 60

_READS = ["diabetes.csv", "train.csv", "data.csv"]
_COLUMNS = ["Glucose", "Age", "SkinThickness", "Pregnancies", "BMI", "Insulin"]
_FILLS = ["df.mean()", "df.median()", "0"]


def _script(rng):
    """One synthetic preparation script: read, clean, filter, encode."""
    lines = [
        "import pandas as pd",
        f"df = pd.read_csv('{rng.choice(_READS)}')",
        f"df = df.fillna({rng.choice(_FILLS)})",
    ]
    for column in rng.sample(_COLUMNS, rng.randrange(1, 4)):
        lines.append(f"df = df[df['{column}'] < {rng.randrange(40, 200)}]")
    if rng.random() < 0.5:
        lines.append("df = df.dropna()")
    lines.append("df = pd.get_dummies(df)")
    return "\n".join(lines) + "\n"


def _materialize(directory, rng):
    scripts = []
    seen = set()
    while len(scripts) < N_SCRIPTS:
        script = _script(rng)
        if script in seen:
            continue
        seen.add(script)
        scripts.append(script)
    for position, script in enumerate(scripts):
        with open(os.path.join(directory, f"prep_{position:03d}.py"), "w") as handle:
            handle.write(script)
    return scripts


def test_perf_corpus_warm_refresh():
    rng = random.Random(17)
    directory = tempfile.mkdtemp(prefix="repro-bench-corpus-")
    try:
        scripts = _materialize(directory, rng)

        index = CorpusIndex()
        started = time.perf_counter()
        build_report = index.refresh(directory)
        index_build_s = time.perf_counter() - started
        assert build_report.added == N_SCRIPTS

        cold_s, warm_s = [], []
        reparse_counts = []
        for round_no in range(ROUNDS):
            # edit exactly one script on disk
            victim = rng.randrange(N_SCRIPTS)
            scripts[victim] = _script(rng)
            with open(
                os.path.join(directory, f"prep_{victim:03d}.py"), "w"
            ) as handle:
                handle.write(scripts[victim])

            started = time.perf_counter()
            report = index.refresh()
            index.to_vocabulary()
            warm_s.append(time.perf_counter() - started)
            reparse_counts.append(report.reparsed)
            assert report.changed == 1
            assert report.unchanged_stat == N_SCRIPTS - 1

            LEMMA_CACHE.clear()
            STATEMENT_CACHE.clear()
            started = time.perf_counter()
            CorpusVocabulary.from_scripts(scripts)
            cold_s.append(time.perf_counter() - started)

        # bit-identity first: the incrementally maintained index must
        # equal a from-scratch rebuild before any speed number counts
        index.verify()

        cold_ms = statistics.median(cold_s) * 1000
        warm_ms = statistics.median(warm_s) * 1000
        speedup = cold_ms / warm_ms
        report = {
            "workload": {
                "scripts": N_SCRIPTS,
                "changed_per_round": 1,
                "rounds": ROUNDS,
            },
            "cold_build_ms": round(cold_ms, 3),
            "warm_refresh_ms": round(warm_ms, 3),
            "index_build_ms": round(index_build_s * 1000, 3),
            "reparsed_per_round": reparse_counts,
            "corpus_refresh_speedup": round(speedup, 2),
            "environment": bench_environment(),
        }
        with open(BENCH_JSON, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")

        publish(
            "perf_corpus_index",
            render_table(
                ["path", "wall (ms)", "reparses"],
                [
                    ["cold from_scripts", f"{cold_ms:.1f}", str(N_SCRIPTS)],
                    ["warm refresh (1 file changed)", f"{warm_ms:.1f}",
                     str(reparse_counts[-1])],
                ],
                title=(
                    f"Offline phase over {N_SCRIPTS} scripts after a "
                    f"single-file edit (median of {ROUNDS} rounds): "
                    f"{speedup:.1f}x"
                ),
            )
            + f"\n[speedup recorded in {BENCH_JSON}]",
        )

        # the acceptance bar: exactly one reparse per edited file, and
        # at least an order of magnitude over the cold rebuild
        assert reparse_counts == [1] * ROUNDS, report
        assert speedup >= 10.0, report
    finally:
        shutil.rmtree(directory, ignore_errors=True)
