"""repro.server — standardization-as-a-service.

Every fast path in this repo — prefix-resumable executors, the
downstream-accuracy memo, the content-addressed corpus/retrieval
indexes — amortizes within one process.  A one-shot CLI run throws that
warm state away on exit; a long-lived daemon turns each per-process
cache into a cross-request throughput win.  This package is that
daemon:

* :mod:`repro.server.protocol` — the line-delimited JSON wire format
  (one request per line, one response per line, matched by ``id``);
* :mod:`repro.server.jobs` — the deterministic job runner shared by the
  warm server and the cold one-shot replay (the bit-identity anchor);
* :mod:`repro.server.queue` — bounded admission, per-request deadlines,
  first-in-first-out scheduling;
* :mod:`repro.server.engine` — the asyncio request engine: warm
  per-corpus state with LRU admission, one job at a time in arrival
  order, ``ServerStats``, graceful SIGTERM drain;
* :mod:`repro.server.client` — a blocking socket client for scripting,
  tests, and the ``repro client`` subcommand;
* :mod:`repro.server.oneshot` — the cold per-request process the warm
  path is benchmarked (and audited) against;
* :mod:`repro.server.verify` — the ``verify_server`` audit: replay a
  served response in a fresh process and require byte-identical JSON.
"""

from .client import ServerClient, ServerError
from .engine import (
    ServerConfig,
    ServerStats,
    ServerThread,
    StandardizationServer,
    WarmRegistry,
)
from .jobs import JobError, execute_job, normalize_job, system_key
from .protocol import decode, encode, error_response, ok_response
from .queue import Job, JobQueue, QueueFullError
from .verify import audit_job

__all__ = [
    "Job",
    "JobError",
    "JobQueue",
    "QueueFullError",
    "ServerClient",
    "ServerConfig",
    "ServerError",
    "ServerStats",
    "ServerThread",
    "StandardizationServer",
    "WarmRegistry",
    "audit_job",
    "decode",
    "encode",
    "error_response",
    "execute_job",
    "normalize_job",
    "ok_response",
    "system_key",
]
