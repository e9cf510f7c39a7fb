"""The asyncio request engine: warm state, first-in-first-out jobs, drain.

Execution model
---------------
The event loop owns all I/O and the queue; one dedicated thread owns
all job execution.  The scheduler takes the oldest queued job (see
:class:`~repro.server.queue.JobQueue`), runs it to completion on that
thread and answers it before taking the next.  Two properties fall out:

* **determinism** — jobs execute one at a time in admission order,
  against caches whose contents are bit-identical to a cold build by
  construction, so every response replays byte-for-byte in a fresh
  process (the ``verify_server`` audit);
* **isolation** — a slow search never wedges the loop; admission,
  control ops, and drain stay responsive while a job runs.

Warm-state lifecycle
--------------------
:class:`WarmRegistry` pins one ``LucidScript`` per *system key* — the
content address of (corpus scripts in order, data_dir, intent, config
overrides) — under LRU admission.  A warm hit reuses the curated corpus
index and the incremental executor's prefix snapshots; each request
prepares its own intent state and drops it when it returns.  Eviction
just drops the pin (the process-wide corpus cache underneath keeps its
own bounds).  Warm state assumes the dataset files under ``data_dir``
are immutable for the server's lifetime, matching the corpus-snapshot
staleness contract.
Jobs that share a corpus need no batching to share its curation: each
one acquires the same pinned system.

Admission and SLA
-----------------
The queue is bounded (reject with retryable ``queue_full``); a request
``deadline_s`` is its SLA from admission: expired-while-queued jobs are
answered with a retryable ``deadline`` error without running, and a job
dispatched with time left has the remainder threaded into the existing
exec-budget machinery (``LSConfig.exec_timeout_s``) so no single
candidate script can burn more than what is left of the SLA.  Such a
job that fails once its deadline has passed is answered with a
``deadline`` error too; one that succeeds late is still answered ``ok``.

Drain
-----
On SIGTERM/SIGINT (or the ``shutdown`` op): stop admitting (retryable
``draining`` errors), let the in-flight job finish, reject everything
still queued, close the listeners, remove the socket file.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import sys
import threading
import time
from collections import Counter, deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from .._audit import AuditMismatchError
from .._lru import LRUCache
from ..core import LucidScript
from . import jobs as jobs_mod
from . import protocol
from .queue import Job, JobQueue, QueueFullError
from .verify import audit_job

__all__ = [
    "ServerConfig",
    "ServerStats",
    "StandardizationServer",
    "WarmRegistry",
]

#: Latency samples the ``stats`` op keeps for its p50/p95.
STATS_WINDOW = 512


def _deadline(value: Any, name: str = "deadline_s") -> Optional[float]:
    """*value* as an SLA in seconds, or None for no deadline.

    It must be a finite positive number and not a bool: JSON parses
    ``NaN`` and ``Infinity``, and ``true`` is an int to Python.  A
    finite int too large for a float is refused too.
    """
    if value is None:
        return None
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not 0 < value <= sys.float_info.max
    ):
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
    return float(value)


@dataclass
class ServerConfig:
    """Tunable knobs of one server instance (CLI: ``repro serve``)."""

    socket_path: Optional[str] = None  #: unix socket to listen on
    host: Optional[str] = None  #: optional TCP host (with ``port``)
    port: int = 0  #: TCP port (0 = ephemeral, see ``tcp_address``)
    queue_limit: int = 64  #: bounded admission: max queued jobs
    warm_limit: int = 8  #: warm systems pinned (LRU admission)
    audit: bool = False  #: verify_server: replay every response cold
    default_deadline_s: Optional[float] = None  #: SLA when requests set none
    install_signal_handlers: bool = True  #: SIGTERM/SIGINT -> drain

    def __post_init__(self):
        if self.socket_path is None and self.host is None:
            raise ValueError("server needs a unix socket path and/or a TCP host")
        if self.queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {self.queue_limit}")
        if self.warm_limit < 1:
            raise ValueError(f"warm_limit must be >= 1, got {self.warm_limit}")
        _deadline(self.default_deadline_s, "default_deadline_s")


def _percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


class ServerStats:
    """Cross-request serving counters (the ``stats`` control op).

    Mutated from both the event loop (admission counters) and the job
    thread (job counters), so every update goes through one lock.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._started_at = time.monotonic()
        self._latencies: Deque[Tuple[str, float]] = deque(maxlen=STATS_WINDOW)
        self.jobs = Counter()  #: completed jobs per op
        self.errors = Counter()  #: error responses per error kind
        self.admitted = 0
        self.queue_rejections = 0
        self.drain_rejections = 0
        self.deadline_misses = 0
        self.warm_hits = 0
        self.warm_misses = 0
        self.audits = 0
        self.audit_failures = 0

    def record_admission(self) -> None:
        with self._lock:
            self.admitted += 1

    def record_rejection(self, kind: str) -> None:
        with self._lock:
            if kind == "queue_full":
                self.queue_rejections += 1
            elif kind == "draining":
                self.drain_rejections += 1
            self.errors[kind] += 1

    def record_job(
        self,
        op: str,
        latency_s: float,
        error_kind: Optional[str],
        warm_hit: Optional[bool],
    ) -> None:
        with self._lock:
            self.jobs[op] += 1
            self._latencies.append((op, latency_s))
            if error_kind is not None:
                self.errors[error_kind] += 1
                if error_kind == "deadline":
                    self.deadline_misses += 1
            if warm_hit is True:
                self.warm_hits += 1
            elif warm_hit is False:
                self.warm_misses += 1

    def record_audit(self, ok: bool) -> None:
        with self._lock:
            self.audits += 1
            if not ok:
                self.audit_failures += 1

    def snapshot(self, queue_depth: int = 0, queue_peak: int = 0) -> Dict[str, Any]:
        with self._lock:
            latencies = [seconds for _, seconds in self._latencies]
            return {
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "jobs": dict(sorted(self.jobs.items())),
                "jobs_total": sum(self.jobs.values()),
                "errors": dict(sorted(self.errors.items())),
                "admitted": self.admitted,
                "queue_depth": queue_depth,
                "queue_peak_depth": queue_peak,
                "queue_rejections": self.queue_rejections,
                "drain_rejections": self.drain_rejections,
                "deadline_misses": self.deadline_misses,
                "warm_hits": self.warm_hits,
                "warm_misses": self.warm_misses,
                "audits": self.audits,
                "audit_failures": self.audit_failures,
                "latency_p50_ms": round(_percentile(latencies, 0.50) * 1000, 3),
                "latency_p95_ms": round(_percentile(latencies, 0.95) * 1000, 3),
            }


class WarmRegistry:
    """Per-system-key warm :class:`LucidScript` instances, LRU-admitted.

    The key is the content address of everything that determines
    results (corpus in order, data_dir, intent, config), so a warm hit
    is bit-identical to a fresh build — it just skips the offline phase
    and arrives with its prefix snapshots already hot.
    Thread-safe: acquired from the job thread while the event loop may
    be admitting (and therefore content-addressing) new corpora.
    """

    def __init__(self, limit: int = 8):
        self._systems = LRUCache(limit, thread_safe=True)

    def acquire(self, resolved: "jobs_mod.ResolvedJob") -> Tuple[LucidScript, bool]:
        """The pinned system for *resolved* plus whether it was warm."""
        system = self._systems.get(resolved.key)
        if system is not None:
            return system, True
        system = jobs_mod.build_system(resolved)
        self._systems[resolved.key] = system
        return system, False

    def __len__(self) -> int:
        return len(self._systems)


class StandardizationServer:
    """The long-lived standardization daemon (one per process)."""

    def __init__(self, config: ServerConfig):
        self.config = config
        self.stats = ServerStats()
        self.registry = WarmRegistry(config.warm_limit)
        self.queue = JobQueue(config.queue_limit)
        self.tcp_address: Optional[Tuple[str, int]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._servers: List[asyncio.AbstractServer] = []
        self._scheduler_task: Optional[asyncio.Task] = None
        self._conn_tasks: set = set()
        self._wake: Optional[asyncio.Event] = None
        self._closed: Optional[asyncio.Event] = None
        self._draining = False
        self._drain_task: Optional[asyncio.Task] = None
        # one dedicated executor thread: jobs always run on the same
        # thread, serially — the determinism anchor of the whole engine
        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-job"
        )

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._closed = asyncio.Event()
        if self.config.socket_path:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.config.socket_path)
            self._servers.append(
                await asyncio.start_unix_server(
                    self._on_connection,
                    path=self.config.socket_path,
                    limit=protocol.MAX_REQUEST_LINE_BYTES,
                )
            )
        if self.config.host is not None:
            server = await asyncio.start_server(
                self._on_connection,
                host=self.config.host,
                port=self.config.port,
                limit=protocol.MAX_REQUEST_LINE_BYTES,
            )
            self._servers.append(server)
            bound = server.sockets[0].getsockname()
            self.tcp_address = (bound[0], bound[1])
        if self.config.install_signal_handlers:
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(
                    NotImplementedError, RuntimeError, ValueError
                ):
                    self._loop.add_signal_handler(signum, self.request_drain)
        self._scheduler_task = asyncio.create_task(self._scheduler())

    def request_drain(self) -> None:
        """Idempotent drain trigger (signal handlers, the shutdown op)."""
        if self._drain_task is None:
            self._drain_task = self._loop.create_task(self.drain())

    async def drain(self) -> None:
        """Graceful shutdown: finish the in-flight job, reject the rest."""
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        for job in self.queue.drain():
            self.stats.record_rejection("draining")
            self._complete(
                job,
                protocol.error_response(
                    job.request_id,
                    "draining",
                    "server is draining; retry later or elsewhere",
                ),
            )
        self._wake.set()
        if self._scheduler_task is not None:
            await self._scheduler_task
        self._executor.shutdown(wait=True)
        for server in self._servers:
            server.close()
        for server in self._servers:
            await server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self.config.socket_path:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.config.socket_path)
        self._closed.set()

    async def wait_closed(self) -> None:
        await self._closed.wait()

    # ----------------------------------------------------------- connections
    async def _write(self, writer, lock: asyncio.Lock, message: Dict) -> None:
        with contextlib.suppress(Exception):  # client may be gone — fine
            async with lock:
                writer.write(protocol.encode(message))
                await writer.drain()

    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        write_lock = asyncio.Lock()
        pending: set = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # longer than the listener's limit
                    limit = protocol.MAX_REQUEST_LINE_BYTES
                    error = protocol.error_response(
                        None, "bad_request", f"request line exceeds {limit} bytes"
                    )
                    await self._write(writer, write_lock, error)
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = protocol.decode(line)
                except ValueError as exc:
                    await self._write(
                        writer,
                        write_lock,
                        protocol.error_response(
                            None, "bad_request", f"malformed request: {exc}"
                        ),
                    )
                    continue
                # each request gets its own task so one connection can
                # pipeline many jobs into the queue
                request = asyncio.create_task(
                    self._serve_message(message, writer, write_lock)
                )
                pending.add(request)
                request.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(task)
            with contextlib.suppress(Exception):
                writer.close()

    async def _serve_message(self, message: Dict, writer, write_lock) -> None:
        request_id = message.get("id")
        op = message.get("op")
        if op == "ping":
            response = protocol.ok_response(request_id, {"pong": True})
        elif op == "stats":
            response = protocol.ok_response(
                request_id,
                self.stats.snapshot(self.queue.depth, self.queue.peak_depth),
            )
        elif op == "shutdown":
            response = protocol.ok_response(request_id, {"draining": True})
            await self._write(writer, write_lock, response)
            self.request_drain()
            return
        elif op in protocol.JOB_OPS:
            response = await self._enqueue_job(message)
        else:
            response = protocol.error_response(
                request_id, "bad_request", f"unknown op {op!r}"
            )
        await self._write(writer, write_lock, response)

    # -------------------------------------------------------------- admission
    async def _enqueue_job(self, message: Dict) -> Dict:
        request_id = message.get("id")
        if self._draining:
            self.stats.record_rejection("draining")
            return protocol.error_response(
                request_id, "draining", "server is draining; retry later"
            )
        try:
            deadline_s = _deadline(
                message.get("deadline_s", self.config.default_deadline_s)
            )
        except ValueError as exc:
            return protocol.error_response(request_id, "bad_request", str(exc))
        try:
            job_dict = jobs_mod.normalize_job(message)
            resolved = jobs_mod.resolve_job(job_dict)
        except jobs_mod.JobError as exc:
            self.stats.record_rejection(exc.kind)
            return protocol.error_response(request_id, exc.kind, str(exc))
        except Exception as exc:  # noqa: BLE001 - malformed beyond taxonomy
            return protocol.error_response(
                request_id, "bad_request", f"{type(exc).__name__}: {exc}"
            )
        job = Job(
            request_id=request_id,
            job=job_dict,
            future=self._loop.create_future(),
            deadline_s=deadline_s,
            resolved=resolved,
        )
        try:
            self.queue.admit(job)
        except QueueFullError as exc:
            self.stats.record_rejection("queue_full")
            return protocol.error_response(request_id, "queue_full", str(exc))
        self.stats.record_admission()
        self._wake.set()
        return await job.future

    # -------------------------------------------------------------- scheduling
    def _complete(self, job: Job, response: Dict) -> None:
        if not job.future.done():
            job.future.set_result(response)

    async def _scheduler(self) -> None:
        while True:
            for job in self.queue.pop_expired():
                self.stats.record_job(job.op, 0.0, "deadline", None)
                self._complete(
                    job,
                    protocol.error_response(
                        job.request_id,
                        "deadline",
                        f"deadline of {job.deadline_s:g}s expired in queue",
                    ),
                )
            taken = self.queue.take_wave(1)
            if not taken:
                if self._draining:
                    return
                self._wake.clear()
                if self.queue.depth == 0:
                    await self._wake.wait()
                continue
            response = await self._loop.run_in_executor(
                self._executor, self._run_job, taken[0]
            )
            self._complete(taken[0], response)

    # ------------------------------------------------------ job execution (thread)
    def _run_job(self, job: Job) -> Dict:
        """Run one job, count it in the stats, and return its response."""
        started = time.monotonic()
        response, warm_hit = self._execute(job)
        error_kind = None if response.get("ok") else response["error"]["kind"]
        self.stats.record_job(job.op, time.monotonic() - started, error_kind, warm_hit)
        return response

    def _execute(self, job: Job) -> Tuple[Dict, Optional[bool]]:
        remaining = job.remaining_s()
        if remaining is not None and remaining <= 0:
            return (
                protocol.error_response(
                    job.request_id,
                    "deadline",
                    f"deadline of {job.deadline_s:g}s expired before execution",
                ),
                None,
            )
        resolved = job.resolved
        warm_hit: Optional[bool] = None
        clamped = False
        try:
            system, warm_hit = self.registry.acquire(resolved)
            job_dict = job.job
            budget = resolved.config.exec_timeout_s
            restore = system.config.exec_timeout_s
            if remaining is not None and (budget is None or remaining < budget):
                # SLA -> exec budget: what is left of the deadline bounds
                # every sandboxed script run inside this job's search
                clamped = True
                job_dict = {
                    "op": job.job["op"],
                    "params": {
                        **job.job["params"],
                        "config": {
                            **job.job["params"]["config"],
                            "exec_timeout_s": remaining,
                        },
                    },
                }
                system.config.exec_timeout_s = remaining
            try:
                result = jobs_mod.execute_job(job_dict, system=system)
                response = protocol.ok_response(
                    job.request_id, result, {"warm": warm_hit}
                )
            finally:
                system.config.exec_timeout_s = restore
        except jobs_mod.JobError as exc:
            if clamped and job.remaining_s() <= 0:
                # the clamped budget ran out, so the deadline failed the
                # job, not the request: answer it as a retryable miss
                response = protocol.error_response(
                    job.request_id,
                    "deadline",
                    f"deadline of {job.deadline_s:g}s expired during execution",
                    {"warm": warm_hit},
                )
            else:
                response = protocol.error_response(
                    job.request_id, exc.kind, str(exc), {"warm": warm_hit}
                )
        except Exception as exc:  # noqa: BLE001 - engine fault, keep serving
            return (
                protocol.error_response(
                    job.request_id, "internal", f"{type(exc).__name__}: {exc}"
                ),
                warm_hit,
            )
        if self.config.audit and not clamped:
            # verify_server: replay this response in a fresh one-shot
            # process and require byte-identical deterministic payloads.
            # Deadline-clamped jobs are skipped: a wall-clock budget can
            # legitimately fire on one side only.
            try:
                audit_job(job_dict, response)
                self.stats.record_audit(True)
            except AuditMismatchError as exc:
                self.stats.record_audit(False)
                response = protocol.error_response(
                    job.request_id, "audit_mismatch", str(exc)
                )
            except Exception as exc:  # noqa: BLE001 - replay infra failed
                self.stats.record_audit(False)
                response = protocol.error_response(
                    job.request_id,
                    "internal",
                    f"audit replay failed: {type(exc).__name__}: {exc}",
                )
        return response, warm_hit
