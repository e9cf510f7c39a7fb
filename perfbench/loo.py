"""``loo_tau_j`` and ``loo_tau_m``: the paper's leave-one-out protocol.

One op is ``LucidScript(rest, …)`` construction plus ``standardize(user)``
for one (competition, held-out script) pair, with the Table 2
configuration from ``recommend_parameters`` and the τ_J (0.9) or τ_M (1%)
intent.  Pairs of all six competitions are interleaved in a seeded order.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import Dict, List, Optional, Tuple

from repro.core import LSConfig, LucidScript, StandardizationError, recommend_parameters
from repro.core.entropy import RelativeEntropyScorer
from repro.corpus import cached_index, clear_corpus_cache, corpus_cache_counters
from repro.harness import make_intent
from repro.lang import CorpusVocabulary, ScriptError, parse_script
from repro.sandbox import run_script
from repro.workloads import ScriptCorpus

import inputs
from layers import StatsTotals, layer_metrics
from measure import SetupTimer, latency_summary, probe_ms, self_peak_rss_mb, windowed_factors
from spans import Tracer

#: Timed ops per requested second (the run's length is fixed work, not a
#: clock), and the floor that keeps at least ten samples beyond p90.
OPS_PER_SECOND = {"jaccard": 25, "model": 25}
MIN_OPS = 100

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 2


def _table2(corpus: ScriptCorpus) -> Tuple[int, int]:
    """(seq, K) from Table 2, on the competition's full corpus."""
    vocabulary = cached_index(corpus.scripts).to_vocabulary()
    config = recommend_parameters(len(corpus.scripts) - 1, vocabulary.uniq_edges)
    return config.seq, config.beam_size


def _standardize(corpus: ScriptCorpus, index: int, kind: str, shape: Tuple[int, int]):
    user, rest = inputs.leave_one_out(corpus, index)
    config = LSConfig(seq=shape[0], beam_size=shape[1])
    system = LucidScript(
        rest, data_dir=corpus.data_dir, intent=make_intent(kind, corpus), config=config
    )
    return system.standardize(user)


def _setup(work: str, seed: int, kind: str, n_ops: int):
    clear_corpus_cache()
    comps = inputs.competitions(inputs.fresh_dir(work), seed)
    shapes = {name: _table2(corpus) for name, corpus in comps.items()}
    warmup, ops = inputs.stratified_pairs(comps, n_ops, seed)
    for name, index in warmup:
        _standardize(comps[name], index, kind, shapes[name])
    return comps, shapes, ops


def _gate(comps, ops, results, kind) -> List[str]:
    """Check every op's output on oracle paths, never the hot path.

    The output is re-executed cold with ``run_script``, its intent
    re-checked with a fresh, unprepared ``IntentMeasure.check`` against
    the cold output of the input, and RE before/after recomputed by full
    recount over a vocabulary of the held-out remainder built from
    freshly parsed DAGs (``CorpusVocabulary.from_scripts(rest)`` with each
    script parsed once per competition).
    """
    mismatches: List[str] = []
    dags: Dict[str, list] = {}
    sample_rows = LSConfig().sample_rows
    for (name, index), result in zip(ops, results):
        if result is None:
            continue
        corpus = comps[name]
        where = f"{name}[{index}]"
        cold_out = run_script(result.output_script, data_dir=corpus.data_dir, sample_rows=sample_rows)
        cold_in = run_script(result.input_script, data_dir=corpus.data_dir, sample_rows=sample_rows)
        if not (cold_out.ok and cold_out.output is not None and cold_in.ok):
            mismatches.append(f"{where}: output does not re-execute cold")
            continue
        delta, satisfied = make_intent(kind, corpus).check(cold_in.output, cold_out.output)
        if satisfied != result.intent_satisfied or delta != result.intent_delta:
            mismatches.append(
                f"{where}: intent {delta!r}/{satisfied} != {result.intent_delta!r}/"
                f"{result.intent_satisfied}"
            )
        if name not in dags:
            dags[name] = [parse_script(script) for script in corpus.scripts]
        rest = dags[name][:index] + dags[name][index + 1:]
        scorer = RelativeEntropyScorer(CorpusVocabulary(rest))
        re_before = scorer.score_dag(parse_script(result.input_script, lemmatized=True))
        re_after = scorer.score_dag(parse_script(result.output_script, lemmatized=True))
        if (re_before, re_after) != (result.re_before, result.re_after):
            mismatches.append(
                f"{where}: RE {re_before!r}->{re_after!r} != "
                f"{result.re_before!r}->{result.re_after!r}"
            )
    return mismatches


def run(ctx, kind: str) -> Dict:
    n_ops = max(MIN_OPS, round(ctx.seconds * OPS_PER_SECOND[kind]))
    timer = SetupTimer()
    for rep in range(SETUP_REPS):
        with timer:
            comps, shapes, ops = _setup(os.path.join(ctx.work, f"rep{rep}"), ctx.seed, kind, n_ops)

    tracer = Tracer() if ctx.trace else None
    probes: List[float] = []
    raw: List[float] = []
    results: list = []
    traced: List[bool] = []
    totals = StatsTotals()
    before = corpus_cache_counters()
    gc.collect()
    for position, (name, index) in enumerate(ops):
        probes.append(probe_ms())
        on = tracer is not None and position % 2 == 1
        if on:
            tracer.install()
        result: Optional[object] = None
        started = time.perf_counter()
        try:
            if on:
                with tracer.span("op"):
                    result = _standardize(comps[name], index, kind, shapes[name])
            else:
                result = _standardize(comps[name], index, kind, shapes[name])
        except (StandardizationError, ScriptError):
            pass
        finally:
            raw.append(time.perf_counter() - started)
            if on:
                tracer.uninstall()
        results.append(result)
        traced.append(on)
        if result is not None:
            totals.add(result.stats)
    corpus_delta = corpus_cache_counters().delta(before)
    # before the gate, so the oracle's work does not count
    peak_rss = self_peak_rss_mb()

    factors = windowed_factors(probes)
    normalized = [seconds * factor for seconds, factor in zip(raw, factors)]
    ok = [i for i, result in enumerate(results) if result is not None]
    failed = len(ops) - len(ok)
    mismatches = _gate(comps, ops, results, kind)
    improvements = [results[i].improvement for i in ok]
    quality = statistics.median(improvements) if improvements else 0.0
    run_factor = statistics.mean(factors)

    record = {
        "ops": len(ops),
        "mix": {name: sum(1 for n, _ in ops if n == name) for name in comps},
        "table2": {name: list(shape) for name, shape in shapes.items()},
        "raw_pass_s": sum(raw),
        "normalized_pass_s": sum(normalized),
        "op_normalized_ms": [
            [name, index, 1000.0 * seconds] for (name, index), seconds in zip(ops, normalized)
        ],
        "re_improvement_median_pct": quality,
        **timer.summary(),
    }
    if ctx.trace:
        on_ops = [normalized[i] for i in ok if traced[i]]
        off_ops = [normalized[i] for i in ok if not traced[i]]
        overhead = 100.0 * (statistics.median(on_ops) / statistics.median(off_ops) - 1.0)
        summary = tracer.summary("op")
        metrics = layer_metrics(
            summary,
            run_factor,
            totals,
            corpus_delta=corpus_delta,
            n_ops=len(ops),
            extra={
                "trace.overhead_pct": overhead,
                "probe.ms_median": statistics.median(probes),
                "quality.re_improvement_median_pct": quality,
                "run.failed_pct": 100.0 * failed / len(ops),
            },
        )
        record["trace"] = summary
    else:
        latency = latency_summary([normalized[i] for i in ok], [raw[i] for i in ok])
        record.update(latency)
        metrics = {
            "latency_p50_ms": latency["latency_p50_ms"],
            "latency_p90_ms": latency["latency_p90_ms"],
            "throughput_ops_s": len(ok) / sum(normalized),
            "setup_s": timer.summary()["setup_s"],
            "peak_rss_mb": peak_rss,
        }
        record["raw_throughput_ops_s"] = len(ok) / sum(raw)
    return {
        "attempted": len(ops),
        "failed": failed,
        "mismatches": mismatches,
        "metrics": metrics,
        "probes": probes + timer.probes,
        "record": record,
    }
