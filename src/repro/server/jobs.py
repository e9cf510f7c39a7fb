"""The one request model: the CLI's job ops, the warm server and cold replay.

A *job* is the canonical, self-contained description of one request:
``{"op": ..., "params": {...}}`` with the corpus inlined as script
texts (or named by an ``index`` snapshot path), the intent normalized
to an explicit descriptor, and the config reduced to the
explicitly-requested :class:`~repro.core.LSConfig` overrides.
Canonicalization happens once at admission (:func:`normalize_job`);
after that the same job dict drives

* the CLI's ``standardize``/``score``/``explain``/``detect-leakage`` —
  :func:`execute_job` in-process, whose result dict the CLI renders;
* the warm path — :func:`execute_job` against a registry-held
  :class:`~repro.core.LucidScript` whose corpus index and prefix
  snapshots survive across requests (its intent state is prepared per
  request) — and
* the cold path — the same function in a fresh
  :mod:`repro.server.oneshot` process with every cache empty.

All three produce the same result dict byte-for-byte, because every
warm structure in this repo is bit-identical to its cold rebuild by
construction; the ``verify_server`` audit holds the server to exactly
that claim per response.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from hashlib import sha1
from typing import Any, Dict, Optional

from .._audit import AuditMismatchError
from ..core import (
    LSConfig,
    LucidScript,
    ModelPerformanceIntent,
    StandardizationError,
    TableJaccardIntent,
)
from ..core.explain import explain_result
from ..corpus import (
    RetrievalIndex,
    corpus_key,
    load_index,
    read_corpus_dir,
    shared_store,
)
from ..lang import ScriptError
from .protocol import JOB_OPS, canonical

__all__ = [
    "JobError",
    "ResolvedJob",
    "build_system",
    "execute_job",
    "normalize_job",
    "resolve_job",
]

#: LSConfig fields a request may override per job.
_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(LSConfig))


class JobError(Exception):
    """A job failed with a deterministic, client-visible verdict.

    ``kind`` maps onto the protocol error taxonomy (``bad_request``,
    ``standardization``, ``audit_mismatch``); the message is part of the
    deterministic payload, so it must not embed timing, pids, or paths
    that differ between the warm server and a cold replay.
    """

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobError("bad_request", message)


def _normalize_intent(op: str, params: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The explicit intent descriptor for one job (None = no intent).

    Accepts either an explicit ``intent`` object or the CLI-style
    ``target`` / ``tau_m`` / ``tau_j`` shorthand: a target switches to
    the model-performance measure, otherwise table Jaccard applies.
    ``score`` never uses an intent (scoring has no constraints).  The
    intent is built here, so a bad threshold is rejected at admission.
    """
    if op == "score":
        return None
    intent = params.get("intent")
    if intent is None:
        intent = (
            {"kind": "model_performance", "target": params["target"],
             "tau": params.get("tau_m", 1.0)}
            if params.get("target")
            else {"kind": "table_jaccard", "tau": params.get("tau_j", 0.9)}
        )
    _require(isinstance(intent, dict), "'intent' must be an object")
    kind = intent.get("kind")
    if kind in (None, "none"):
        return None
    try:
        if kind == "table_jaccard":
            descriptor = {"kind": kind, "tau": float(intent.get("tau", 0.9))}
        elif kind == "model_performance":
            _require(
                isinstance(intent.get("target"), str),
                "model_performance intent requires a 'target' column",
            )
            descriptor = {
                "kind": kind,
                "target": intent["target"],
                "tau": float(intent.get("tau", 1.0)),
            }
        else:
            raise JobError("bad_request", f"unknown intent kind {kind!r}")
        _build_intent(descriptor)
    except (TypeError, ValueError) as exc:
        raise JobError("bad_request", f"invalid intent: {exc}") from exc
    return descriptor


def _normalize_corpus(params: Dict[str, Any]) -> Dict[str, Any]:
    """The job's corpus fields.

    ``corpus`` (inline texts) or ``corpus_dir`` resolves into script
    texts *at admission time*, so the canonical job is self-contained
    and a later audit replay cannot diverge because a file changed.  An
    ``index`` snapshot path is read where the system is built, like
    ``data_dir``; a ``corpus_dir`` sent with it refreshes the snapshot
    in memory first.
    """
    corpus = params.get("corpus")
    corpus_dir = params.get("corpus_dir")
    index = params.get("index")
    _require(
        corpus_dir is None or isinstance(corpus_dir, str) and bool(corpus_dir),
        "'corpus_dir' must be a string path",
    )
    if index is not None:
        _require(isinstance(index, str) and bool(index), "'index' must be a string path")
        _require(corpus is None, "send one of 'corpus' or 'index', not both")
        return {"corpus": None, "corpus_dir": corpus_dir, "index": index}
    if corpus is None:
        _require(
            corpus_dir is not None,
            "one of 'corpus', 'corpus_dir' or 'index' is required",
        )
        try:
            corpus = read_corpus_dir(corpus_dir)
        except ValueError as exc:
            raise JobError("bad_request", str(exc)) from exc
    _require(
        isinstance(corpus, list) and corpus and all(isinstance(s, str) for s in corpus),
        "'corpus' must be a non-empty list of script texts",
    )
    return {"corpus": list(corpus), "corpus_dir": None, "index": None}


def _config(overrides: Dict[str, Any], retrieve_k: Optional[int]) -> LSConfig:
    """The job's LSConfig: its overrides, plus ``retrieve_k`` as the
    retrieval pool's ``retrieval_k`` when the job retrieves."""
    if retrieve_k is None:
        return LSConfig(**overrides)
    return LSConfig(**overrides, retrieval_k=retrieve_k)


def _normalize_config(params: Dict[str, Any]) -> Dict[str, Any]:
    overrides = params.get("config") or {}
    _require(isinstance(overrides, dict), "'config' must be an object")
    unknown = sorted(set(overrides) - _CONFIG_FIELDS)
    _require(not unknown, f"unknown config fields: {', '.join(unknown)}")
    retrieve_k = params.get("retrieve_k")
    _require(
        retrieve_k is None or type(retrieve_k) is int,
        "'retrieve_k' must be an integer",
    )
    try:  # validate values eagerly so admission rejects, not the job
        _config(overrides, retrieve_k)
    except (TypeError, ValueError) as exc:
        raise JobError("bad_request", f"invalid config: {exc}") from exc
    return {name: overrides[name] for name in sorted(overrides)}


def normalize_job(raw: Dict[str, Any]) -> Dict[str, Any]:
    """Validate one raw request into the canonical self-contained job.

    Raises :class:`JobError` (kind ``bad_request``) on any malformed
    input; the returned dict is what the queue holds, the engine
    executes, and the audit replays.
    """
    _require(isinstance(raw, dict), "request must be a JSON object")
    op = raw.get("op")
    _require(op in JOB_OPS, f"op must be one of {', '.join(JOB_OPS)}")
    params = raw.get("params") or {}
    _require(isinstance(params, dict), "'params' must be an object")
    script = params.get("script")
    _require(
        isinstance(script, str) and bool(script.strip()),
        "'script' (the input script text) is required",
    )
    data_dir = params.get("data_dir")
    _require(
        data_dir is None or isinstance(data_dir, str),
        "'data_dir' must be a string path",
    )
    return {
        "op": op,
        "params": {
            "script": script,
            **_normalize_corpus(params),
            "data_dir": data_dir,
            "intent": _normalize_intent(op, params),
            "config": _normalize_config(params),
            "retrieve_k": params.get("retrieve_k"),
        },
    }


# --------------------------------------------------------------------------
# Resolution: canonical job -> (system key, constructor inputs)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedJob:
    """One job's constructor inputs plus its warm-state address."""

    job: Dict[str, Any]
    key: str  #: content address of (corpus, data_dir, intent, config)
    data_dir: Optional[str]
    config: LSConfig
    intent: Optional[object]


def _build_intent(descriptor: Optional[Dict[str, Any]]):
    if descriptor is None:
        return None
    if descriptor["kind"] == "table_jaccard":
        return TableJaccardIntent(tau=descriptor["tau"])
    return ModelPerformanceIntent(
        target=descriptor["target"], tau=descriptor["tau"]
    )


def _digest(payload: Any) -> str:
    return sha1(canonical(payload).encode()).hexdigest()


def resolve_job(job: Dict[str, Any]) -> ResolvedJob:
    """Resolve a canonical job into constructor inputs and its key.

    The key is ``<corpus address>:<request-shape digest>`` — two jobs
    share warm state iff their corpus scripts (by content, in order, or
    an index snapshot by its path), data directory, intent, config
    overrides and retrieval all match.
    """
    params = job["params"]
    shape = _digest(
        {
            "data_dir": params["data_dir"],
            "intent": params["intent"],
            "config": params["config"],
            "retrieve_k": params["retrieve_k"],
        }
    )
    if params["index"] is None:
        corpus = corpus_key(params["corpus"], params["config"].get("dialect", "pandas"))
    else:  # a snapshot is keyed by its path, like data_dir
        corpus = _digest([params["index"], params["corpus_dir"]])
    return ResolvedJob(
        job=job,
        key=f"{corpus}:{shape}",
        data_dir=params["data_dir"],
        config=_config(params["config"], params["retrieve_k"]),
        intent=_build_intent(params["intent"]),
    )


def _load_corpus(params: Dict[str, Any], dialect: str):
    """The corpus a system is built over: the inline scripts or the
    loaded (and refreshed) snapshot — as a retrieval pool when the job
    retrieves."""
    corpus = params["corpus"]
    if corpus is None:
        try:
            corpus = load_index(params["index"])
            if params["corpus_dir"]:
                corpus.refresh(params["corpus_dir"])
        except (OSError, ValueError, KeyError) as exc:
            raise JobError(
                "bad_request", f"cannot load corpus index {params['index']!r}: {exc}"
            ) from exc
        _require(corpus.n_scripts, f"corpus index {params['index']!r} is empty")
    if params["retrieve_k"] is None:
        return corpus
    try:
        if isinstance(corpus, list):
            pool = RetrievalIndex(store=shared_store(dialect))
            for source in corpus:
                pool.add_script(source)
        else:
            pool = RetrievalIndex.from_index(corpus, shared_store(dialect))
    except ValueError as exc:  # a snapshot of another dialect
        raise JobError("bad_request", str(exc)) from exc
    _require(pool.n_scripts, "retrieval pool is empty")
    return pool


def build_system(resolved: ResolvedJob) -> LucidScript:
    """A fresh :class:`LucidScript` for one resolved job (the offline
    phase runs here — through the process-wide warm corpus cache)."""
    corpus = _load_corpus(resolved.job["params"], resolved.config.dialect)
    try:
        return LucidScript(
            corpus,
            data_dir=resolved.data_dir,
            intent=resolved.intent,
            config=resolved.config,
        )
    except ScriptError as exc:
        raise JobError("bad_request", f"corpus failed to curate: {exc}") from exc
    except AuditMismatchError as exc:
        raise JobError("audit_mismatch", str(exc)) from exc


# --------------------------------------------------------------------------
# Execution: the one deterministic runner both paths share
# --------------------------------------------------------------------------


def execute_job(
    job: Dict[str, Any], system: Optional[LucidScript] = None
) -> Dict[str, Any]:
    """Run one canonical job and return its deterministic result dict.

    *system* is the warm registry's pinned instance on the server path;
    None (the cold path) builds a fresh one.  Result dicts contain only
    values that are bit-identical between those two paths — no timings,
    no cache counters, no SearchStats.
    """
    if system is None:
        system = build_system(resolve_job(job))
    op = job["op"]
    script = job["params"]["script"]
    try:
        if op == "score":
            return {"score": system.score(script)}
        result = system.standardize(script)
    except StandardizationError as exc:
        raise JobError("standardization", str(exc)) from exc
    except ScriptError as exc:
        raise JobError("bad_request", f"input script failed to parse: {exc}") from exc
    except AuditMismatchError as exc:
        raise JobError("audit_mismatch", str(exc)) from exc
    if op == "standardize":
        return result.to_dict()
    if op == "explain":
        explanations = explain_result(result, system.vocabulary)
        return {
            "explanations": [e.render() for e in explanations],
            "improvement": result.improvement,
            "output_script": result.output_script,
        }
    # detect_leakage: flag removed (out-of-the-ordinary) statements with
    # their corpus prevalence
    flagged = [
        {
            "prevalence": system.vocabulary.statement_frequency(line),
            "statement": line,
        }
        for line in result.removed_statements()
    ]
    return {"flagged": flagged, "output_script": result.output_script}
