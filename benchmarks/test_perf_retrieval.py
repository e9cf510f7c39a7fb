"""Retrieval-engine throughput: top-k corpus assembly vs brute force.

A standing-pool workload — 1,000 distinct preparation scripts in 50
dataset clusters, indexed once by :class:`repro.corpus.RetrievalIndex` —
queried for a k=20 working corpus.  The sub-linear path (LSH band
lookups + schema postings → ``top_k`` → ``assemble_from_hits``) is
raced against the brute-force path the retrieval engine replaces:
curating the *entire* pool into a :class:`CorpusIndex` and
materializing its vocabulary.  Both paths run against the same warm
``ScriptStore``, so the race measures corpus assembly, not parsing.

Correctness gates before any speed number counts:

- every timed query re-runs with ``verify=True`` — the audit raises
  :class:`~repro.core.AuditMismatchError` if the banded top-k misses any member
  of the brute-force top-k (exactness, not approximation);
- the retrieval-assembled corpus passes ``CorpusIndex.verify()``
  (bit-identical to a from-scratch build over the same winners);
- one full standardization through the retrieval pool is asserted
  bit-identical (output script, RE before/after) to the same search
  over the hand-curated winner scripts.

Results are published to ``benchmarks/results/`` and the machine-
readable speedup to the repo-root ``BENCH_retrieval.json``.  The
acceptance bar: ≥10x over brute-force assembly at the 1k pool.
"""

import json
import os
import random
import shutil
import statistics
import tempfile
import time

import pytest

from repro.core import LucidScript
from repro.corpus import CorpusIndex, RetrievalIndex, ScriptStore
from repro.harness import render_table

from _shared import bench_config, bench_environment, publish

pytestmark = pytest.mark.perf

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_retrieval.json")

N_CLUSTERS = 50
VARIANTS = 20
N_SCRIPTS = N_CLUSTERS * VARIANTS
K = 20
N_QUERIES = 5
ROUNDS = 3


def _pool(rng):
    """1,000 distinct scripts in dataset clusters (shared read + columns)."""
    scripts = []
    for c in range(N_CLUSTERS):
        cols = [f"c{c}_{j}" for j in range(3)]
        for v in range(VARIANTS):
            serial = c * VARIANTS + v
            lines = [
                "import pandas as pd",
                f"df = pd.read_csv('data_{c}.csv')",
                # a unique constant keeps every variant lemma-distinct
                f"df = df.fillna({serial})",
            ]
            for column in rng.sample(cols, rng.randrange(1, 3)):
                lines.append(f"df = df[df['{column}'] < {rng.randrange(40, 200)}]")
            if rng.random() < 0.5:
                lines.append(f"df['{cols[0]}'] = df['{cols[0]}'].astype(int)")
            if rng.random() < 0.5:
                lines.append("df = df.drop_duplicates()")
            if rng.random() < 0.4:
                lines.append("df = df.dropna()")
            lines.append("df")
            scripts.append("\n".join(lines) + "\n")
    return scripts


def _write_query_data(directory):
    """The CSV read by cluster 0's scripts (for the end-to-end parity run)."""
    rng = random.Random(5)
    rows = ["c0_0,c0_1,c0_2"]
    for _ in range(80):
        cells = [
            "" if rng.random() < 0.15 else str(rng.randrange(100)) for _ in range(3)
        ]
        rows.append(",".join(cells))
    with open(os.path.join(directory, "data_0.csv"), "w") as handle:
        handle.write("\n".join(rows) + "\n")


def test_perf_retrieval_topk_assembly():
    rng = random.Random(23)
    scripts = _pool(rng)
    store = ScriptStore()

    started = time.perf_counter()
    pool = RetrievalIndex.from_scripts(scripts, store=store)
    index_build_s = time.perf_counter() - started
    assert pool.n_scripts == N_SCRIPTS
    assert pool.n_unique_scripts == N_SCRIPTS  # every variant lemma-distinct

    queries = [scripts[c * VARIANTS] for c in range(0, N_CLUSTERS, N_CLUSTERS // N_QUERIES)]

    # -------------------------------------------------- correctness gates
    for query in queries:
        hits = pool.top_k(query, K, verify=True)  # audit raises on any miss
        assert len(hits) == K
        corpus = pool.assemble_from_hits(hits)
        corpus.verify()

    # end-to-end parity: retrieval pool vs hand-curated winner scripts
    data_dir = tempfile.mkdtemp(prefix="repro-bench-retrieval-")
    try:
        _write_query_data(data_dir)
        query = queries[0]
        winners = [hit.record.source for hit in pool.top_k(query, K)]
        config = bench_config(retrieval_k=K, audit=True)
        retrieved = LucidScript(pool, data_dir=data_dir, config=config).standardize(
            query
        )
        curated = LucidScript(
            winners, data_dir=data_dir, config=bench_config()
        ).standardize(query)
        assert retrieved.output_script == curated.output_script
        assert retrieved.re_before == curated.re_before
        assert retrieved.re_after == curated.re_after
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    # -------------------------------------------------------- the race
    brute_s, topk_s = [], []
    for _ in range(ROUNDS):
        for query in queries:
            started = time.perf_counter()
            hits = pool.top_k(query, K)
            pool.assemble_from_hits(hits).to_vocabulary()
            topk_s.append(time.perf_counter() - started)

            started = time.perf_counter()
            CorpusIndex.from_scripts(scripts, store=store).to_vocabulary()
            brute_s.append(time.perf_counter() - started)

    counters = pool.counters
    candidates_per_query = counters.candidates / max(1, counters.queries)

    brute_ms = statistics.median(brute_s) * 1000
    topk_ms = statistics.median(topk_s) * 1000
    speedup = brute_ms / topk_ms
    report = {
        "workload": {
            "pool_scripts": N_SCRIPTS,
            "clusters": N_CLUSTERS,
            "k": K,
            "queries": N_QUERIES,
            "rounds": ROUNDS,
        },
        "brute_assembly_ms": round(brute_ms, 3),
        "topk_assembly_ms": round(topk_ms, 3),
        "index_build_ms": round(index_build_s * 1000, 3),
        "candidates_per_query": round(candidates_per_query, 1),
        "retrieval_fallbacks": counters.fallbacks,
        "retrieval_assembly_speedup": round(speedup, 2),
        "environment": bench_environment(),
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    publish(
        "perf_retrieval",
        render_table(
            ["path", "wall (ms)", "scripts touched"],
            [
                ["brute-force corpus assembly", f"{brute_ms:.1f}", str(N_SCRIPTS)],
                [
                    f"top-{K} retrieval + assembly",
                    f"{topk_ms:.1f}",
                    f"{candidates_per_query:.0f} cand -> {K}",
                ],
            ],
            title=(
                f"Working-corpus assembly over a {N_SCRIPTS}-script pool "
                f"(median of {ROUNDS}x{N_QUERIES} queries, audited): "
                f"{speedup:.1f}x"
            ),
        )
        + f"\n[speedup recorded in {BENCH_JSON}]",
    )

    # the acceptance bar: no exactness fallbacks on a clustered pool, and
    # at least an order of magnitude over brute-force assembly
    assert counters.fallbacks == 0, report
    assert speedup >= 10.0, report
