"""``retrieval_pool``: top-k retrieval scoring over a live ~900-script pool.

One op is ``LucidScript(pool, retrieval_k=20).score(q)`` for a
never-seen query script: retrieve the 20 nearest pool scripts, assemble
them into a working corpus and score the query against it — no script
execution.  After every op the pool takes one write: a never-seen script
is admitted and the oldest member removed, through the index's delta
path.  Writes are timed apart from queries and count toward throughput,
so a query speed-up paid for on the write path shows.
"""

from __future__ import annotations

import gc
import math
import os
import statistics
import time
from collections import deque
from typing import Dict, List

from repro.core import LSConfig, LucidScript
from repro.core.entropy import RelativeEntropyScorer
from repro.corpus import (
    RetrievalIndex,
    RetrievalMismatchError,
    ScriptStore,
    clear_corpus_cache,
    corpus_cache_counters,
    shared_store,
)
from repro.lang import CorpusVocabulary, parse_script

import inputs
from layers import StatsTotals, layer_metrics
from measure import (
    REF_PROBE_MS,
    SetupTimer,
    latency_summary,
    probe_ms,
    self_peak_rss_mb,
    windowed_factors,
)
from spans import Tracer

QUERIES_PER_SECOND = 25
MIN_OPS = 100
POOL_SIZE = 900
K = 20
WARMUP_QUERIES = 6
GATE_SAMPLE = 24
SETUP_REPS = 2


def _round_robin(groups: List[List[str]]) -> List[str]:
    merged, seen = [], set()
    for row in range(max(len(group) for group in groups)):
        for group in groups:
            if row < len(group) and group[row] not in seen:
                seen.add(group[row])
                merged.append(group[row])
    return merged


def _setup(work: str, seed: int, n_ops: int):
    clear_corpus_cache()
    comps = inputs.competitions(inputs.fresh_dir(work), seed)
    base = [script for corpus in comps.values() for script in corpus.scripts]
    fill = POOL_SIZE - len(base)
    wanted = fill + 2 * n_ops + WARMUP_QUERIES
    # about a fifth of generated scripts repeat one already drawn
    per = math.ceil(wanted * 1.5 / len(comps))
    known = set(base)
    extras = inputs.extra_scripts(comps, seed, per)
    fresh = [script for script in _round_robin(list(extras.values())) if script not in known]
    if len(fresh) < wanted:
        raise RuntimeError(f"generated {len(fresh)} distinct extra scripts, need {wanted}")
    members = base + fresh[:fill]
    rest = fresh[fill:]
    order = inputs.rng(seed, inputs.SCHEDULE).permutation(len(members)).tolist()
    queries = rest[0: 2 * n_ops: 2]
    writes = rest[1: 2 * n_ops: 2]
    warmup = rest[2 * n_ops: 2 * n_ops + WARMUP_QUERIES]

    started = time.perf_counter()
    pool = RetrievalIndex(store=shared_store())
    ids = deque()
    for position in order:
        script_id = pool.add_script(members[position])
        if script_id is not None:
            ids.append(script_id)
    build_s = time.perf_counter() - started
    for query in warmup:
        LucidScript(pool, config=LSConfig(retrieval_k=K)).score(query)
    return pool, ids, queries, writes, build_s


def _oracle(pool: RetrievalIndex, query: str, mismatches: List[str], where: str):
    """Brute-force expectation for one query, off the hot path.

    The query's signature comes from a private store, so the shared store
    the op uses stays untouched; the LSH top-k is audited against brute
    force (``top_k(verify=True)``), and the expected score is a full
    recount over a vocabulary built from the brute-force winners.
    """
    signature = ScriptStore().get_or_parse(query).signature
    try:
        pool.top_k(signature, K, verify=True)
    except RetrievalMismatchError as exc:
        mismatches.append(f"{where}: {exc}")
    hits = pool.brute_force_top_k(signature, K)
    dags = [parse_script(hit.record.source, lemmatized=True) for hit in hits]
    return RelativeEntropyScorer(CorpusVocabulary(dags)).score_dag(parse_script(query))


def run(ctx) -> Dict:
    n_ops = max(MIN_OPS, round(ctx.seconds * QUERIES_PER_SECOND))
    timer = SetupTimer()
    for rep in range(SETUP_REPS):
        with timer:
            pool, ids, queries, writes, build_s = _setup(
                os.path.join(ctx.work, f"rep{rep}"), ctx.seed, n_ops
            )
    build_factor = REF_PROBE_MS / statistics.median(timer.probes[-2:])

    gate_at = set(inputs.sample_positions(n_ops, GATE_SAMPLE, ctx.seed))
    tracer = Tracer() if ctx.trace else None
    probes: List[float] = []
    query_s: List[float] = []
    write_s: List[float] = []
    traced: List[bool] = []
    mismatches: List[str] = []
    gate_counters = [0, 0, 0]
    counters_before = pool.counters.snapshot()
    corpus_before = corpus_cache_counters()
    gc.collect()
    for position, (query, write) in enumerate(zip(queries, writes)):
        expected = None
        if position in gate_at:
            snapshot = pool.counters.snapshot()
            expected = _oracle(pool, query, mismatches, f"query {position}")
            gate_counters = [
                total + after - before
                for total, before, after in zip(gate_counters, snapshot, pool.counters.snapshot())
            ]
        probes.append(probe_ms())
        on = tracer is not None and position % 2 == 1
        if on:
            tracer.install()
        started = time.perf_counter()
        if on:
            with tracer.span("op"):
                score = LucidScript(pool, config=LSConfig(retrieval_k=K)).score(query)
        else:
            score = LucidScript(pool, config=LSConfig(retrieval_k=K)).score(query)
        queried = time.perf_counter()
        script_id = pool.add_script(write)
        pool.remove_script(ids.popleft())
        if script_id is not None:
            ids.append(script_id)
        written = time.perf_counter()
        if on:
            tracer.uninstall()
        query_s.append(queried - started)
        write_s.append(written - queried)
        traced.append(on)
        if expected is not None and score != expected:
            mismatches.append(f"query {position}: score {score!r} != brute force {expected!r}")
    corpus_delta = corpus_cache_counters().delta(corpus_before)
    peak_rss = self_peak_rss_mb()
    n_queries, candidates, fallbacks = (
        after - before - gate
        for before, after, gate in zip(counters_before, pool.counters.snapshot(), gate_counters)
    )

    factors = windowed_factors(probes)
    norm_query = [s * f for s, f in zip(query_s, factors)]
    norm_write = [s * f for s, f in zip(write_s, factors)]
    record = {
        "ops": n_ops,
        "pool_size": len(pool),
        "retrieval_queries": n_queries,
        "raw_index_build_s": build_s,
        "raw_query_s": sum(query_s),
        "raw_write_s": sum(write_s),
        "normalized_write_ms_mean": 1000.0 * statistics.mean(norm_write),
        "gate_checked": len(gate_at),
        **timer.summary(),
    }
    if ctx.trace:
        summary = tracer.summary("op")
        on_q = [q for q, t in zip(norm_query, traced) if t]
        off_q = [q for q, t in zip(norm_query, traced) if not t]
        metrics = layer_metrics(
            summary,
            statistics.mean(factors),
            StatsTotals(),
            corpus_delta=corpus_delta,
            n_ops=n_ops,
            retrieval={
                "candidates": candidates,
                "fallbacks": fallbacks,
                "index_build_s": build_s * build_factor,
            },
            extra={
                "trace.overhead_pct": 100.0 * (statistics.median(on_q) / statistics.median(off_q) - 1.0),
                "probe.ms_median": statistics.median(probes),
                "quality.re_improvement_median_pct": 0.0,
                "run.failed_pct": 0.0,
            },
        )
        record["trace"] = summary
    else:
        latency = latency_summary(norm_query, query_s)
        record.update(latency)
        metrics = {
            "latency_p50_ms": latency["latency_p50_ms"],
            "latency_p90_ms": latency["latency_p90_ms"],
            "throughput_ops_s": n_ops / (sum(norm_query) + sum(norm_write)),
            "setup_s": timer.summary()["setup_s"],
            "peak_rss_mb": peak_rss,
        }
        record["raw_throughput_ops_s"] = n_ops / (sum(query_s) + sum(write_s))
    return {
        "attempted": n_ops,
        "failed": 0,
        "mismatches": mismatches,
        "metrics": metrics,
        "probes": probes + timer.probes,
        "record": record,
    }
