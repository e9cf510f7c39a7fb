"""``repro serve`` with the benchmark's span wrappers, for the traced run.

Usage::

    PYTHONPATH=src python3 perfbench/traced_server.py SUMMARY.json -- serve ARGS...

Runs ``repro.cli.main(["serve", ...])`` in this process.  Requests whose
id is an integer are measured: every odd one runs with the wrappers of
``trace.py`` installed (root span ``job``), every even one without, so
the tracing overhead is measured on the same server.  Queue waits and
wave sizes are read where the wave thread takes a wave.  When the server
has drained, the summary is written to SUMMARY.json.
"""

from __future__ import annotations

import json
import sys
import threading
import time

from layers import StatsTotals
from spans import Tracer


def main(argv) -> int:
    summary_path, separator, *serve_args = argv
    if separator != "--":
        raise SystemExit(__doc__)
    from repro import cli
    from repro.core import LucidScript
    from repro.corpus import corpus_cache_counters
    from repro.server import engine, queue

    tracer = Tracer()
    job_s = {"traced": [], "untraced": []}
    waits, waves = [], []
    totals = StatsTotals()
    measuring = threading.local()
    corpus_before = []

    run_job = engine.StandardizationServer._run_job
    take_wave = queue.JobQueue.take_wave
    standardize = LucidScript.standardize

    def measured_run_job(self, job):
        if not isinstance(job.request_id, int):
            return run_job(self, job)
        if not corpus_before:
            corpus_before.append(corpus_cache_counters())
        on = job.request_id % 2 == 1
        if on:
            tracer.install()
        measuring.active = True
        started = time.perf_counter()
        try:
            if on:
                with tracer.span("job"):
                    return run_job(self, job)
            return run_job(self, job)
        finally:
            job_s["traced" if on else "untraced"].append(time.perf_counter() - started)
            measuring.active = False
            if on:
                tracer.uninstall()

    def measured_take_wave(self, max_wave):
        wave = take_wave(self, max_wave)
        mine = [job for job in wave if isinstance(job.request_id, int)]
        if mine:
            now = time.monotonic()
            waits.extend(now - job.enqueued_at for job in mine)
            waves.append(len(wave))
        return wave

    def counted_standardize(self, script):
        result = standardize(self, script)
        if getattr(measuring, "active", False):
            totals.add(result.stats)
        return result

    engine.StandardizationServer._run_job = measured_run_job
    queue.JobQueue.take_wave = measured_take_wave
    LucidScript.standardize = counted_standardize
    status = cli.main(serve_args)
    corpus = corpus_cache_counters().delta(corpus_before[0]) if corpus_before else None
    with open(summary_path, "w") as handle:
        json.dump(
            {
                "trace": tracer.summary("job"),
                "job_s": job_s,
                "queue_wait_s": waits,
                "wave_sizes": waves,
                "stats": totals.as_dict(),
                "corpus": {
                    "index_hits": corpus.index_hits if corpus else 0,
                    "script_hits": corpus.script_hits if corpus else 0,
                    "script_parses": corpus.script_parses if corpus else 0,
                },
            },
            handle,
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
