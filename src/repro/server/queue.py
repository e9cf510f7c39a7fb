"""Bounded admission, deadlines, and first-in-first-out scheduling.

The queue is a plain (non-async) data structure driven exclusively by
the engine's event loop — single-threaded access by construction, so it
needs no lock.  It holds canonical jobs in one deque in arrival order;
the scheduler takes them from the head, one at a time, so jobs run in
the order they were admitted whatever corpus they target.

Admission control:

* the queue is bounded (``limit``): when full, :meth:`JobQueue.admit`
  raises :class:`QueueFullError` and the engine answers with a
  *retryable* ``queue_full`` error instead of buffering unboundedly;
* each job may carry a deadline (its SLA, measured from admission).  A
  job whose deadline expires while still queued is handed back by
  :meth:`pop_expired` without ever running; a job dispatched with time
  remaining has the remainder threaded into the existing exec-budget
  machinery (``LSConfig.exec_timeout_s``) by the engine, so a
  pathological candidate script cannot blow the SLA from inside the
  search either.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional

__all__ = ["Job", "JobQueue", "QueueFullError"]


class QueueFullError(Exception):
    """Admission refused: the bounded job queue is at capacity."""


@dataclass
class Job:
    """One admitted request, from admission to response."""

    request_id: Any
    job: Dict[str, Any]  #: canonical job dict (see jobs.normalize_job)
    future: Any  #: asyncio.Future the connection handler awaits
    enqueued_at: float = 0.0  #: monotonic admission timestamp
    deadline_s: Optional[float] = None  #: SLA measured from admission
    resolved: Any = None  #: jobs.ResolvedJob (constructor inputs, warm key)

    def remaining_s(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds of SLA left (None = no deadline)."""
        if self.deadline_s is None:
            return None
        now = time.monotonic() if now is None else now
        return self.deadline_s - (now - self.enqueued_at)

    @property
    def op(self) -> str:
        return self.job["op"]


class JobQueue:
    """The bounded first-in-first-out job queue (event-loop-only access)."""

    def __init__(self, limit: int = 64):
        if limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {limit}")
        self.limit = limit
        self._jobs: Deque[Job] = deque()
        self.peak_depth = 0

    def admit(self, job: Job) -> None:
        """Accept one job or raise :class:`QueueFullError`."""
        if len(self._jobs) >= self.limit:
            raise QueueFullError(
                f"job queue is at capacity ({self.limit} jobs); retry later"
            )
        job.enqueued_at = time.monotonic()
        self._jobs.append(job)
        self.peak_depth = max(self.peak_depth, len(self._jobs))

    @property
    def depth(self) -> int:
        return len(self._jobs)

    def pop_expired(self, now: Optional[float] = None) -> List[Job]:
        """Jobs whose SLA expired while queued (removed, oldest first)."""
        now = time.monotonic() if now is None else now
        kept: Deque[Job] = deque()
        expired: List[Job] = []
        for job in self._jobs:
            remaining = job.remaining_s(now)
            if remaining is not None and remaining <= 0:
                expired.append(job)
            else:
                kept.append(job)
        self._jobs = kept
        return expired

    def take_wave(self, max_wave: int) -> List[Job]:
        """Up to *max_wave* jobs from the head, oldest first; the engine
        takes one at a time.  Empty when idle.  (``perfbench``'s traced
        server wraps this name to read queue waits and dispatch sizes.)"""
        return [self._jobs.popleft() for _ in range(min(max_wave, len(self._jobs)))]

    def drain(self) -> List[Job]:
        """Remove and return every queued job (oldest first) — the
        graceful-shutdown path rejects these with a retryable error."""
        pending = list(self._jobs)
        self._jobs.clear()
        return pending
