"""Per-layer metrics of a traced run, from spans and the layers' own counters.

Span metrics are per traced op: calls, and self time in milliseconds
normalized like every other timing.  Counter metrics come from what the
layers already expose — ``SearchStats`` of each result, the corpus cache
counters, ``RetrievalIndex.counters`` and the server's ``stats`` op — and
are per op as well.  A layer a workload does not use reports 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Optional

#: Span names folded into each self-time metric.
SELF_TIME = {
    "lang.lemmatize.ms": ("lang.lemmatize",),
    "lang.parse.ms": ("lang.parse",),
    "corpus.curate.ms": ("corpus.curate", "corpus.to_vocabulary"),
    "corpus.retrieve.ms": ("corpus.top_k", "corpus.assemble"),
    "corpus.pool_write.ms": ("corpus.add_script", "corpus.remove_script"),
    "core.get_steps.ms": ("core.get_steps",),
    "core.top_k.ms": ("core.top_k",),
    "core.check_executes.ms": ("core.check_executes",),
    "core.intent.ms": ("core.intent",),
    "sandbox.exec.ms": ("sandbox.exec", "sandbox.run_script"),
    "minipandas.read_csv.ms": ("minipandas.read_csv",),
    "ml.evaluate.ms": ("ml.evaluate",),
}

#: Span names folded into each call-count metric.
CALLS = {
    "lang.lemmatize.calls": ("lang.lemmatize",),
    "lang.parse.calls": ("lang.parse",),
    "core.check_executes.calls": ("core.check_executes",),
    "sandbox.exec.calls": ("sandbox.exec", "sandbox.run_script"),
    "minipandas.read_csv.calls": ("minipandas.read_csv",),
    "ml.evaluate.calls": ("ml.evaluate",),
}

#: SearchStats fields summed over ops.
STAT_FIELDS = (
    "n_delta_scores",
    "n_full_recounts",
    "verify_constraints_s",
    "n_intent_checks",
    "n_intent_cache_hits",
    "n_intent_short_circuits",
    "prefix_cache_hits",
    "prefix_cache_misses",
)


class StatsTotals:
    """Sums of the SearchStats counters over a run's standardize ops."""

    def __init__(self):
        self.sums: Dict[str, float] = defaultdict(float)
        self.ops = 0

    def add(self, stats) -> None:
        self.ops += 1
        for name in STAT_FIELDS:
            self.sums[name] += getattr(stats, name)
        # resumed statements = mean depth x hits, summed for a run-wide mean
        self.sums["resumed"] += stats.prefix_mean_resume_depth * stats.prefix_cache_hits

    def as_dict(self) -> Dict[str, float]:
        return dict(self.sums, ops=self.ops)

    @classmethod
    def from_dict(cls, payload: Dict[str, float]) -> "StatsTotals":
        totals = cls()
        totals.ops = int(payload["ops"])
        totals.sums.update((key, value) for key, value in payload.items() if key != "ops")
        return totals


def _per(value: float, count: int) -> float:
    return value / count if count else 0.0


def layer_metrics(
    trace: Dict,
    factor: float,
    stats: StatsTotals,
    corpus_delta=None,
    n_ops: int = 0,
    retrieval: Optional[Dict[str, float]] = None,
    extra: Optional[Dict[str, float]] = None,
) -> Dict[str, float]:
    """Every per-layer metric; *factor* normalizes seconds to probe time.

    *trace* is a :meth:`Tracer.summary`; its span metrics are divided by
    the traced ops (``trace['roots']``).  Counters are divided by *n_ops*
    (corpus, retrieval) or by the ops that produced SearchStats.
    """
    traced = trace.get("roots", 0)
    calls, self_s = trace.get("calls", {}), trace.get("self_s", {})
    out: Dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = _per(sum(self_s.get(n, 0.0) for n in names) * 1000.0 * factor, traced)
    for metric, names in CALLS.items():
        out[metric] = _per(sum(calls.get(n, 0) for n in names), traced)
    passed, attempted = trace.get("outcomes", {}).get("core.check_executes", (0, 0))
    out["core.exec_pass_ratio"] = _per(passed, attempted)

    sums, ops = stats.sums, stats.ops
    out["core.delta_scores"] = _per(sums["n_delta_scores"], ops)
    out["core.full_recounts"] = _per(sums["n_full_recounts"], ops)
    out["core.verify_constraints.ms"] = _per(sums["verify_constraints_s"] * 1000.0 * factor, ops)
    out["core.intent.checks"] = _per(sums["n_intent_checks"], ops)
    out["core.intent.cache_hits"] = _per(sums["n_intent_cache_hits"], ops)
    out["core.intent.short_circuits"] = _per(sums["n_intent_short_circuits"], ops)
    probes = sums["prefix_cache_hits"] + sums["prefix_cache_misses"]
    out["sandbox.prefix_hit_rate"] = _per(sums["prefix_cache_hits"], probes)
    out["sandbox.resume_depth_mean"] = _per(sums["resumed"], sums["prefix_cache_hits"])

    out["corpus.index_hits"] = _per(corpus_delta.index_hits, n_ops) if corpus_delta else 0.0
    out["corpus.script_hits"] = _per(corpus_delta.script_hits, n_ops) if corpus_delta else 0.0
    out["corpus.reparses"] = _per(corpus_delta.script_parses, n_ops) if corpus_delta else 0.0
    retrieval = retrieval or {}
    out["corpus.retrieval_candidates"] = _per(retrieval.get("candidates", 0), n_ops)
    out["corpus.retrieval_fallbacks"] = _per(retrieval.get("fallbacks", 0), n_ops)
    out["corpus.index_build_s"] = retrieval.get("index_build_s", 0.0)

    for name in (
        "server.queue_wait_p90_ms",
        "server.wave_size_mean",
        "server.warm_hit_rate",
        "server.job_ms_p50",
        "server.rejections",
        "loadgen.late_p90_ms",
    ):
        out[name] = 0.0
    out["trace.coverage_pct"] = trace.get("coverage_pct", 0.0)
    out.update(extra or {})
    return out
