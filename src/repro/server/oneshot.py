"""Cold one-shot job runner: the audit's ground truth and the bench's
cold baseline.

Run as a module, it reads one canonical job (JSON) from stdin, executes
it in this fresh process with every cache empty, and writes the
response envelope (canonical JSON) to stdout::

    python -m repro.server.oneshot < job.json > response.json

This is by construction the cold path: a new interpreter, a new corpus
cache, new prefix snapshots — exactly what a CLI invocation pays per
request.  ``verify_server`` replays every audited server response
through here and requires byte-identical deterministic payloads.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any, Dict, Optional

from . import jobs as jobs_mod
from . import protocol

__all__ = ["main", "run_oneshot", "run_oneshot_process"]


def run_oneshot(job: Dict[str, Any], request_id: Any = None) -> Dict[str, Any]:
    """Execute one canonical job in this process, as a response envelope.

    Does **not** guarantee cold caches — use :func:`run_oneshot_process`
    for that.  Useful in-process when the caller has already cleared the
    corpus cache (the parity tests do exactly this).
    """
    try:
        result = jobs_mod.execute_job(job)
        return protocol.ok_response(request_id, result)
    except jobs_mod.JobError as exc:
        return protocol.error_response(request_id, exc.kind, str(exc))


def run_oneshot_process(
    job: Dict[str, Any],
    request_id: Any = None,
    timeout: Optional[float] = 600.0,
) -> Dict[str, Any]:
    """Execute one canonical job in a **fresh** python process.

    This is the audit's cold replay and the benchmark's per-request
    cold baseline: interpreter start, imports, corpus curation, prefix
    snapshots — nothing amortized.
    """
    env = dict(os.environ)
    src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    payload = json.dumps({"id": request_id, "job": job})
    completed = subprocess.run(
        [sys.executable, "-m", "repro.server.oneshot"],
        input=payload.encode("utf-8"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        timeout=timeout,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            "one-shot replay process failed "
            f"(exit {completed.returncode}): "
            f"{completed.stderr.decode('utf-8', 'replace').strip()[-2000:]}"
        )
    return json.loads(completed.stdout.decode("utf-8"))


def main() -> int:
    raw = sys.stdin.read()
    try:
        envelope = json.loads(raw)
    except json.JSONDecodeError as exc:
        print(f"oneshot: stdin is not JSON: {exc}", file=sys.stderr)
        return 2
    if isinstance(envelope, dict) and "job" in envelope:
        request_id, job = envelope.get("id"), envelope["job"]
    else:  # a bare canonical job is also accepted
        request_id, job = None, envelope
    response = run_oneshot(job, request_id)
    sys.stdout.write(protocol.canonical(response) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
