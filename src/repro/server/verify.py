"""The server audit: replay warm responses cold and require byte-identity.

The server's whole value is serving from warm state — shared corpus
index, prefix snapshots, the accuracy memo — so its correctness claim
must be checked against the one thing warmth could corrupt: the
response.  :func:`audit_job` replays a job in a **fresh one-shot
process** (empty caches, new interpreter) and compares the
deterministic slice of both responses (:func:`protocol.parity_payload`)
as canonical JSON text.  Any byte of difference raises
:class:`~repro.core.AuditMismatchError` (layer ``server``); the engine
converts that into an ``audit_mismatch`` error response instead of
shipping the unverified result, as it does for the in-process audits
``LSConfig.audit`` turns on.

Only deterministic responses are auditable: ``ok`` results and the
deterministic error verdicts (``standardization``, ``bad_request``).
Admission errors (queue_full / draining / deadline) describe the
server's momentary state, not the job, and deadline-clamped jobs are
excluded by the engine because a wall-clock budget can legitimately
fire on one side only.
"""

from __future__ import annotations

from typing import Any, Dict

from .._audit import AuditMismatchError
from . import protocol
from .oneshot import run_oneshot_process

__all__ = ["audit_job", "auditable"]

#: Error kinds with deterministic payloads (replayable verdicts).
_DETERMINISTIC_ERROR_KINDS = frozenset({"standardization", "bad_request"})


def auditable(response: Dict[str, Any]) -> bool:
    """Whether *response* has a deterministic payload worth replaying."""
    if response.get("ok"):
        return True
    error = response.get("error") or {}
    return error.get("kind") in _DETERMINISTIC_ERROR_KINDS


def audit_job(job: Dict[str, Any], response: Dict[str, Any]) -> None:
    """Replay *job* cold and require byte-identical deterministic payloads.

    No-op for non-auditable responses.  Raises
    :class:`~repro.core.AuditMismatchError` (layer ``server``) on any
    divergence.
    """
    if not auditable(response):
        return
    request_id = response.get("id")
    cold = run_oneshot_process(job, request_id=request_id)
    warm_text = protocol.canonical(protocol.parity_payload(response))
    cold_text = protocol.canonical(protocol.parity_payload(cold))
    if warm_text != cold_text:
        raise AuditMismatchError(
            "server",
            "warm response diverged from cold replay for "
            f"request {request_id!r} (op {job.get('op')!r}):\n"
            f"  warm: {warm_text[:500]}\n"
            f"  cold: {cold_text[:500]}"
        )
