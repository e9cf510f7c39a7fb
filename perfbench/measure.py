"""Machine-speed probe, normalization, percentiles and the run's environment.

The box this benchmark runs on drifts: a fixed pure-Python loop can take a
third longer in one ten-second window than in the next.  Every timing is
therefore reported *normalized*: divided by the time a fixed-work probe
took close to the measured interval and multiplied by ``REF_PROBE_MS``, so
a number reads as "milliseconds on a machine where the probe takes
exactly ``REF_PROBE_MS``".  Raw wall times go into the run record next to
the normalized ones, so every reported number traces back to wall time.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

#: Keys of the probe's table (fixed work; about 3 ms on a 2-vCPU VM).
PROBE_KEYS = [f"probe-{i * 7919 % 100_003}" for i in range(10_000)]

#: The probe time that normalized numbers are expressed against.
REF_PROBE_MS = 3.0

#: Probes on each side of an interval that set its normalization factor.
PROBE_WINDOW = 2


def probe_ms() -> float:
    """Wall time of one fixed-work pure-Python probe, in milliseconds.

    The program's work is dict-, string- and allocation-heavy with a
    working set beyond the CPU caches, and a neighbour on a shared
    machine slows that kind of work more than a tight arithmetic loop.
    So the probe builds and reads a string-keyed table of about 2 MB and
    sorts a list, rather than only counting.
    """
    started = time.perf_counter()
    table = {}
    for position, key in enumerate(PROBE_KEYS):
        table[key] = position
    total = 0
    for key in reversed(PROBE_KEYS):
        total += table[key]
    ranked = sorted(PROBE_KEYS, key=table.__getitem__, reverse=True)
    total += len(ranked[0])
    return (time.perf_counter() - started) * 1000.0


def probe_median(rounds: int = 5) -> float:
    """Median of *rounds* back-to-back probes (for one-off intervals)."""
    return statistics.median(probe_ms() for _ in range(rounds))


def windowed_factors(probes: Sequence[float]) -> List[float]:
    """Per-interval normalization factors from interleaved probes.

    ``probes[i]`` ran just before interval ``i``; its factor uses the
    median of the probes within ``PROBE_WINDOW`` positions on each side,
    so one preempted probe does not skew its interval.
    """
    factors = []
    for i in range(len(probes)):
        window = probes[max(0, i - PROBE_WINDOW): i + PROBE_WINDOW + 1]
        factors.append(REF_PROBE_MS / statistics.median(window))
    return factors


def timed_factors(
    probe_times: Sequence[float], probes: Sequence[float], windows: Sequence[Tuple[float, float]]
) -> List[float]:
    """Normalization factors for intervals from time-stamped probes.

    ``probes[i]`` ran at ``probe_times[i]`` (ascending).  Each window
    ``(start, end)`` takes the median of the probes run within it, or, if
    fewer than ``2 * PROBE_WINDOW + 1`` ran there, of that many probes
    nearest its middle.
    """
    least = 2 * PROBE_WINDOW + 1
    factors = []
    for start, end in windows:
        lo = bisect.bisect_left(probe_times, start)
        hi = bisect.bisect_right(probe_times, end)
        if hi - lo < least:
            middle = bisect.bisect_left(probe_times, (start + end) / 2.0)
            lo = max(0, min(middle - least // 2, len(probes) - least))
            hi = lo + least
        factors.append(REF_PROBE_MS / statistics.median(probes[lo:hi]))
    return factors


def percentile(values: Sequence[float], q: int) -> float:
    """The *q*-th percentile (inclusive method, interpolated)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_summary(normalized_s: Sequence[float], raw_s: Sequence[float]) -> Dict:
    """p50/p90 in ms of normalized op times, with the raw ones beside."""
    return {
        "latency_p50_ms": percentile(normalized_s, 50) * 1000.0,
        "latency_p90_ms": percentile(normalized_s, 90) * 1000.0,
        "raw_latency_p50_ms": percentile(raw_s, 50) * 1000.0,
        "raw_latency_p90_ms": percentile(raw_s, 90) * 1000.0,
        "samples": len(normalized_s),
    }


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def _effective_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _commit(root: str) -> str:
    """The checked-out commit, or a digest of ``src/`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
        lines = out.stdout.split()
        # only this checkout's own repository, never an enclosing one
        if out.returncode == 0 and len(lines) == 2:
            if os.path.realpath(lines[0]) == os.path.realpath(root):
                return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    src = os.path.join(root, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-sha1:" + digest.hexdigest()


def environment(root: str, seed: int, probe_samples: Sequence[float]) -> Dict:
    """The per-run environment record."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "effective_cores": _effective_cores(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": _commit(root),
        "seed": seed,
        "probe_keys": len(PROBE_KEYS),
        "ref_probe_ms": REF_PROBE_MS,
        "probe_ms_median": statistics.median(probe_samples) if probe_samples else None,
        "probe_samples": len(probe_samples),
    }


class SetupTimer:
    """Times repeated set-ups, each normalized by probes around it."""

    def __init__(self):
        self.raw_s: List[float] = []
        self.normalized_s: List[float] = []
        self.probes: List[float] = []
        self._started: Optional[float] = None
        self._before: float = 0.0

    def __enter__(self) -> "SetupTimer":
        self._before = probe_median()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            return
        raw = time.perf_counter() - self._started
        after = probe_median()
        speed = statistics.median([self._before, after])
        self.probes.extend([self._before, after])
        self.raw_s.append(raw)
        self.normalized_s.append(raw * REF_PROBE_MS / speed)

    def summary(self) -> Dict:
        return {
            "setup_s": statistics.median(self.normalized_s),
            "raw_setup_s": statistics.median(self.raw_s),
            "setup_reps_raw_s": self.raw_s,
            "setup_reps_normalized_s": self.normalized_s,
        }
