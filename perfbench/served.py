"""``served``: ``repro serve`` in its own process under a seeded load.

The server holds six warm corpora, one per competition, at the Table 2
configuration of those corpora (seq 16, K 1).  A single-threaded load
generator on one connection sends a seeded mix — 60% ``score``, 20%
``standardize``, 20% ``explain`` — in which about a fifth of requests
re-submit an earlier script.  The shares are those of the mixed workload
of ``benchmarks/test_perf_server.py`` (3 score : 1 standardize : 1
explain : 1 detect_leakage per cycle) without ``detect_leakage``, which
runs the same search as ``standardize``; no traffic data from real users
exists to base them on.  Two phases:

* open loop: requests go out on a seeded schedule at ``OPEN_RATE``, well
  below capacity; each latency is timed from the request's due time, so
  a stall also charges the requests queued behind it;
* closed loop: ``OUTSTANDING`` requests are kept in flight; this gives
  ``throughput_ops_s``.

The traced run starts the server through ``traced_server.py`` instead.
"""

from __future__ import annotations

import json
import math
import os
import select
import socket
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace
from typing import Dict, List, Tuple

from repro.corpus import clear_corpus_cache
from repro.server.jobs import normalize_job
from repro.server.oneshot import run_oneshot
from repro.server.protocol import canonical, decode, encode, parity_payload

import inputs
from layers import StatsTotals, layer_metrics
from measure import (
    REF_PROBE_MS,
    SetupTimer,
    latency_summary,
    percentile,
    probe_median,
    probe_ms,
    process_peak_rss_mb,
    timed_factors,
)

OPEN_RATE = 5.0  #: open-loop requests per second
MIN_OPEN = 160
CLOSED_PER_SECOND = 32
MIN_CLOSED = 256
CLOSED_SEGMENTS = 6
OUTSTANDING = 2
MIX = (("score", 0.6), ("standardize", 0.2), ("explain", 0.2))
RESUBMIT = 0.2
CONFIG = {"seq": 16, "beam_size": 1}
INTENT = {"kind": "table_jaccard", "tau": 0.9}
#: ``score`` has no intent, so each corpus needs two warm systems: one for
#: ``score`` and one shared by ``standardize`` and ``explain``.  The
#: server's default limit (8) would evict some of the twelve.
WARM_LIMIT = 12
GATE_SAMPLE = 12
SETUP_REPS = 2
TIMEOUT_S = 120.0


class Connection:
    """One line-delimited JSON connection, read without blocking."""

    def __init__(self, path: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buffer = b""

    def close(self) -> None:
        self.sock.close()

    def send(self, message: Dict) -> float:
        """Send *message*; returns the time the send started (the server
        shares this CPU and may run before ``sendall`` returns)."""
        started = time.perf_counter()
        self.sock.sendall(encode(message))
        return started

    def poll(self, timeout: float) -> List[Tuple[float, Dict]]:
        """Responses that arrive within *timeout* seconds, time-stamped."""
        ready, _, _ = select.select([self.sock], [], [], max(0.0, timeout))
        if not ready:
            return []
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        now = time.perf_counter()
        self.buffer += chunk
        *lines, self.buffer = self.buffer.split(b"\n")
        return [(now, decode(line)) for line in lines if line.strip()]

    def request(self, message: Dict) -> Dict:
        self.send(message)
        deadline = time.perf_counter() + TIMEOUT_S
        while time.perf_counter() < deadline:
            for _, response in self.poll(1.0):
                if response.get("id") == message["id"]:
                    return response
        raise TimeoutError(f"no response to {message['op']}")


def _message(comps, op: str, name: str, script: str) -> Dict:
    corpus = comps[name]
    params = {
        "script": script,
        "corpus": corpus.scripts,
        "data_dir": os.path.abspath(corpus.data_dir),
        "config": dict(CONFIG),
    }
    if op != "score":
        params["intent"] = dict(INTENT)
    return {"op": op, "params": params}


def _cells(count: int, names: List[str], generator) -> List[Tuple[str, str]]:
    """*count* (op, competition) cells in exact MIX proportions, with the
    competitions in turn, in a seeded order."""
    slots = []
    for rank, (op, share) in enumerate(MIX):
        n = round(count * share) if rank < len(MIX) - 1 else count - len(slots)
        slots.extend(((k + 0.5) / n, op) for k in range(n))
    ops = [op for _, op in sorted(slots)]
    cells = [(ops[i], names[i % len(names)]) for i in range(count)]
    return [cells[i] for i in generator.permutation(count).tolist()]


def _requests(comps, seed: int, counts: Tuple[int, int]):
    """The requests of both phases plus one warm-up script per competition.

    Every seed sends, in each phase, the same number of requests per op
    and per competition, in a seeded order, so seeds differ in the
    scripts and their order but not in the mix.  Every fifth request of
    a competition re-submits one of its earlier scripts.
    """
    names = list(comps)
    per = math.ceil(sum(counts) / len(names) * (1 - RESUBMIT)) + 1
    fresh = inputs.extra_scripts(comps, seed, 2 * per)
    warmup = {name: scripts.pop() for name, scripts in fresh.items()}
    generator = inputs.rng(seed, inputs.SCHEDULE)
    cells = [cell for count in counts for cell in _cells(count, names, generator)]
    sent: Dict[str, List[str]] = {name: [] for name in names}
    messages = []
    for op, name in cells:
        earlier = sent[name]
        # a competition with few distinct scripts re-submits more often
        if earlier and (len(earlier) % 5 == 4 or not fresh[name]):
            script = earlier[generator.integers(len(earlier))]
        else:
            script = fresh[name].pop()
        earlier.append(script)
        messages.append(_message(comps, op, name, script))
    gaps = generator.uniform(0.75, 1.25, size=counts[0]) / OPEN_RATE
    due = (gaps.cumsum() - gaps[0]).tolist()
    return messages, due, warmup


def _start_server(ctx, sock: str, summary: str):
    serve = ["serve", "--socket", sock, "--warm-limit", str(WARM_LIMIT)]
    if ctx.trace:
        command = [sys.executable, os.path.join(ctx.here, "traced_server.py"), summary, "--", *serve]
    else:
        command = [sys.executable, "-m", "repro", *serve]
    env = dict(os.environ, PYTHONPATH=os.path.join(ctx.root, "src"))
    log = open(sock + ".log", "wb")
    process = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, stderr=log)
    log.close()
    deadline = time.perf_counter() + TIMEOUT_S
    while time.perf_counter() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"server exited with {process.returncode}; see {sock}.log")
        if os.path.exists(sock):
            try:
                return process, Connection(sock)
            except OSError:
                pass
        time.sleep(0.02)
    raise TimeoutError("server did not start")


def _stop_server(process, conn) -> None:
    try:
        if conn is not None and process.poll() is None:
            conn.request({"op": "shutdown", "id": "shutdown"})
            process.wait(timeout=60)
    finally:
        if conn is not None:
            conn.close()
        if process.poll() is None:
            process.kill()
        process.wait()


def _setup(ctx, work: str, counts: Tuple[int, int]):
    comps = inputs.competitions(inputs.fresh_dir(work), ctx.seed)
    messages, due, warmup = _requests(comps, ctx.seed, counts)
    sock = os.path.relpath(os.path.join(work, "serve.sock"))
    process, conn = _start_server(ctx, sock, os.path.join(work, "summary.json"))
    try:
        for name, script in warmup.items():
            for op in ("score", "standardize"):
                message = dict(_message(comps, op, name, script), id=f"warmup-{name}-{op}")
                if not conn.request(message).get("ok"):
                    raise RuntimeError(f"warm-up {op} on {name} failed")
    except BaseException:
        _stop_server(process, conn)
        raise
    return comps, messages, due, process, conn


def _open_loop(conn: Connection, messages: List[Dict], due: List[float]):
    """Send on schedule; probe, then spin, while nothing is in flight.

    Each latency is normalized by the probes run between the due times
    of the requests two before and two after it.
    """
    probe_times = [time.perf_counter()]
    probes = [probe_median()]
    start = time.perf_counter() + 0.05
    sent: Dict[int, float] = {}
    done: Dict[int, Tuple[float, Dict]] = {}
    deadline = start + due[-1] + TIMEOUT_S
    position = 0
    while len(done) < len(messages):
        now = time.perf_counter()
        if now > deadline:
            raise TimeoutError("open loop did not finish")
        if position < len(messages) and now >= start + due[position]:
            sent[position] = conn.send(dict(messages[position], id=position))
            position += 1
            continue
        wait = start + due[position] - now if position < len(messages) else 1.0
        idle = position < len(messages) and len(done) == len(sent)
        if idle and wait > 0.006:
            probe_times.append(now)
            probes.append(probe_ms())
            continue
        if idle:
            # spin until due: an idle CPU wakes from a timer late
            continue
        for arrived, response in conn.poll(wait):
            done[response["id"]] = (arrived, response)
    probe_times.append(time.perf_counter())
    probes.append(probe_median())
    last = len(messages) - 1
    windows = [
        (start + due[max(0, i - 2)], start + due[min(last, i + 2)]) for i in range(len(messages))
    ]
    factors = timed_factors(probe_times, probes, windows)
    latency = [done[i][0] - (start + due[i]) for i in range(len(messages))]
    late = [sent[i] - (start + due[i]) for i in range(len(messages))]
    return latency, factors, late, [done[i][1] for i in range(len(messages))], probes


def _closed_segment(conn: Connection, messages: List[Dict], first_id: int):
    """Keep OUTSTANDING requests in flight until all are answered."""
    done: Dict[int, Dict] = {}
    started = time.perf_counter()
    deadline = started + TIMEOUT_S
    position = 0
    finished = started
    while position < min(OUTSTANDING, len(messages)):
        conn.send(dict(messages[position], id=first_id + position))
        position += 1
    while len(done) < len(messages):
        if time.perf_counter() > deadline:
            raise TimeoutError("closed loop did not finish")
        for arrived, response in conn.poll(1.0):
            done[response["id"]] = response
            finished = arrived
            if position < len(messages):
                conn.send(dict(messages[position], id=first_id + position))
                position += 1
    return finished - started, [done[first_id + i] for i in range(len(messages))]


def _closed_loop(conn: Connection, messages: List[Dict], first_id: int):
    """The closed loop in CLOSED_SEGMENTS segments.

    The server shares this process's CPU, so probes never run while a
    request is in flight: each segment drains, then probes run, and each
    segment's time is normalized by the probes on either side of it.
    Returns the raw and the normalized seconds of the whole loop.
    """
    probes = [probe_median()]
    raw = normalized = 0.0
    responses: List[Dict] = []
    size = math.ceil(len(messages) / CLOSED_SEGMENTS)
    for start in range(0, len(messages), size):
        elapsed, segment = _closed_segment(
            conn, messages[start: start + size], first_id + start
        )
        probes.append(probe_median())
        raw += elapsed
        normalized += elapsed * REF_PROBE_MS / statistics.median(probes[-2:])
        responses.extend(segment)
    return raw, normalized, responses, probes


def _gate(messages: List[Dict], responses: List[Dict], seed: int) -> List[str]:
    """Replay a seeded sample cold and compare the deterministic payloads."""
    mismatches = []
    for position in inputs.sample_positions(len(responses), GATE_SAMPLE, seed):
        response = responses[position]
        if not response.get("ok"):
            continue
        clear_corpus_cache()
        cold = run_oneshot(normalize_job(messages[position]), request_id=response["id"])
        if canonical(parity_payload(response)) != canonical(parity_payload(cold)):
            mismatches.append(f"request {response['id']}: warm response != cold replay")
    return mismatches


def _cpu_s(pid: int) -> float:
    """CPU seconds (user + system) a live process has used."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _server_delta(before: Dict, after: Dict) -> Dict[str, float]:
    hits = after["warm_hits"] - before["warm_hits"]
    misses = after["warm_misses"] - before["warm_misses"]
    rejections = sum(
        after[key] - before[key] for key in ("queue_rejections", "drain_rejections")
    )
    return {
        "server.warm_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "server.rejections": float(rejections),
    }


def run(ctx) -> Dict:
    """Pin this process, and the server it starts, to one CPU.

    Probes run in this process; on a shared machine one vCPU can be slowed
    while the other is not, so the probes must time the CPU the server
    runs on.  The server is single-threaded in effect (one wave thread
    under the interpreter lock), so one CPU is all it uses.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return _run(ctx)
    finally:
        os.sched_setaffinity(0, cpus)


def _run(ctx) -> Dict:
    n_open = max(MIN_OPEN, round(ctx.seconds * OPEN_RATE))
    n_closed = max(MIN_CLOSED, round(ctx.seconds * CLOSED_PER_SECOND))
    timer = SetupTimer()
    process = conn = None
    for rep in range(SETUP_REPS):
        if process is not None:
            _stop_server(process, conn)
        with timer:
            work = os.path.join(ctx.work, f"rep{rep}")
            comps, messages, due, process, conn = _setup(ctx, work, (n_open, n_closed))
    try:
        before = conn.request({"op": "stats", "id": "stats-before"})["result"]
        cpu_before = _cpu_s(process.pid)
        latency, open_factors, late, open_responses, open_probes = _open_loop(
            conn, messages[:n_open], due
        )
        cpu_open = _cpu_s(process.pid)
        elapsed, closed_normalized, closed_responses, closed_probes = _closed_loop(
            conn, messages[n_open:], n_open
        )
        cpu_closed = _cpu_s(process.pid)
        after = conn.request({"op": "stats", "id": "stats-after"})["result"]
        peak_rss = process_peak_rss_mb(process.pid)
    finally:
        _stop_server(process, conn)

    responses = open_responses + closed_responses
    failed = sum(1 for response in responses if not response.get("ok"))
    mismatches = _gate(messages, responses, ctx.seed)
    open_factor = statistics.mean(open_factors)
    ok = [i for i, response in enumerate(open_responses) if response.get("ok")]
    record = {
        "open_requests": n_open,
        "closed_requests": n_closed,
        "open_rate": OPEN_RATE,
        "outstanding": OUTSTANDING,
        "raw_closed_elapsed_s": elapsed,
        "server_cpu_open_s": cpu_open - cpu_before,
        "server_cpu_closed_s": cpu_closed - cpu_open,
        "open_probe_ms_median": statistics.median(open_probes),
        "closed_probe_ms_median": statistics.median(closed_probes),
        "late_p90_ms": percentile(late, 90) * 1000.0,
        "open_late_ms": [1000.0 * s for s in late],
        "open_raw_latency_ms": [
            [m["op"], os.path.basename(m["params"]["data_dir"]), 1000.0 * s]
            for m, s in zip(messages, latency)
        ],
        "server_stats": after,
        **timer.summary(),
    }
    probes = open_probes + closed_probes + timer.probes
    if ctx.trace:
        with open(os.path.join(work, "summary.json")) as handle:
            summary = json.load(handle)
        jobs = summary["job_s"]
        trace = summary["trace"]
        metrics = layer_metrics(
            trace,
            open_factor,
            StatsTotals.from_dict(summary["stats"]),
            corpus_delta=SimpleNamespace(**summary["corpus"]),
            n_ops=len(jobs["traced"]) + len(jobs["untraced"]),
            extra={
                **_server_delta(before, after),
                "server.queue_wait_p90_ms": percentile(summary["queue_wait_s"], 90) * 1000.0 * open_factor,
                "server.wave_size_mean": statistics.mean(summary["wave_sizes"]),
                "server.job_ms_p50": statistics.median(jobs["untraced"]) * 1000.0 * open_factor,
                "loadgen.late_p90_ms": percentile(late, 90) * 1000.0,
                "trace.overhead_pct": 100.0
                * (statistics.median(jobs["traced"]) / statistics.median(jobs["untraced"]) - 1.0),
                "probe.ms_median": statistics.median(probes),
                "quality.re_improvement_median_pct": _improvement(responses),
                "run.failed_pct": 100.0 * failed / len(responses),
            },
        )
        record["trace"] = trace
    else:
        summary_latency = latency_summary(
            [latency[i] * open_factors[i] for i in ok], [latency[i] for i in ok]
        )
        record.update(summary_latency)
        metrics = {
            "latency_p50_ms": summary_latency["latency_p50_ms"],
            "latency_p90_ms": summary_latency["latency_p90_ms"],
            "throughput_ops_s": sum(1 for r in closed_responses if r.get("ok"))
            / closed_normalized,
            "setup_s": timer.summary()["setup_s"],
            "peak_rss_mb": peak_rss,
        }
        record["raw_throughput_ops_s"] = n_closed / elapsed
    return {
        "attempted": len(responses),
        "failed": failed,
        "mismatches": mismatches,
        "metrics": metrics,
        "probes": probes,
        "record": record,
    }


def _improvement(responses: List[Dict]) -> float:
    values = [
        r["result"]["improvement"]
        for r in responses
        if r.get("ok") and "improvement" in r.get("result", {})
    ]
    return statistics.median(values) if values else 0.0
