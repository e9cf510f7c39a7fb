"""Line-delimited JSON wire protocol for the standardization server.

One request per line, one response per line.  Requests and responses
are matched by ``id`` (any JSON scalar the client chooses), so a client
may pipeline many requests over one connection and collect responses
out of order.

Request shape::

    {"id": 7, "op": "standardize", "params": {...}, "deadline_s": 30.0}

``op`` is one of the job ops (``standardize`` / ``score`` / ``explain``
/ ``detect_leakage``) or a control op (``ping`` / ``stats`` /
``shutdown``).  A job's ``params`` are ``script`` (text); its corpus as
``corpus`` (texts), ``corpus_dir``, or ``index`` (a snapshot path on the
server, refreshed against a ``corpus_dir`` sent with it);
``retrieve_k`` (curate that many pool neighbours); ``data_dir``; an
``intent`` or the ``target``/``tau_m``/``tau_j`` shorthand; and
``config`` (LSConfig overrides) — see :mod:`repro.server.jobs`.
Response shape::

    {"id": 7, "ok": true,  "result": {...}, "meta": {...}}
    {"id": 7, "ok": false, "error": {"kind": ..., "message": ..., "retryable": ...}}

``result`` (and ``error`` minus ``retryable``) is the *deterministic*
payload: the ``verify_server`` audit requires it byte-identical between
the warm engine and a fresh one-shot process.  ``meta`` carries
non-deterministic serving detail (warm hit, latency) and is excluded
from every parity comparison.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

__all__ = [
    "JOB_OPS",
    "CONTROL_OPS",
    "RETRYABLE_KINDS",
    "canonical",
    "decode",
    "encode",
    "error_response",
    "ok_response",
    "parity_payload",
]

#: Ops that run a standardization job through the queue.
JOB_OPS = ("standardize", "score", "explain", "detect_leakage")

#: Ops the engine answers inline, without queueing.
CONTROL_OPS = ("ping", "stats", "shutdown")

#: Error kinds a client should retry (possibly against another server
#: or after a backoff); everything else is a permanent verdict for this
#: request.
RETRYABLE_KINDS = frozenset({"queue_full", "draining", "deadline"})


def encode(message: Dict[str, Any]) -> bytes:
    """One wire line: canonical (sorted-key, compact) JSON + newline."""
    return (
        json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one wire line; raises ``ValueError`` on malformed input."""
    message = json.loads(line.decode("utf-8"))
    if not isinstance(message, dict):
        raise ValueError("protocol messages must be JSON objects")
    return message


def canonical(payload: Any) -> str:
    """The canonical JSON text of a payload — the unit of byte-identity
    the ``verify_server`` audit and the parity tests compare."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def ok_response(
    request_id: Any,
    result: Any,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    response: Dict[str, Any] = {"id": request_id, "ok": True, "result": result}
    if meta:
        response["meta"] = meta
    return response


def error_response(
    request_id: Any,
    kind: str,
    message: str,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    response: Dict[str, Any] = {
        "id": request_id,
        "ok": False,
        "error": {
            "kind": kind,
            "message": message,
            "retryable": kind in RETRYABLE_KINDS,
        },
    }
    if meta:
        response["meta"] = meta
    return response


def parity_payload(response: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic slice of a response: what must replay
    byte-identically in a fresh one-shot process.

    ``meta`` (serving detail) and ``error.retryable`` (a property of the
    *server's* momentary state, not of the job) are stripped; ``id`` is
    kept so a swapped response can never pass the audit.
    """
    payload: Dict[str, Any] = {"id": response.get("id"), "ok": response.get("ok")}
    if response.get("ok"):
        payload["result"] = response.get("result")
    else:
        error = dict(response.get("error") or {})
        error.pop("retryable", None)
        payload["error"] = error
    return payload
