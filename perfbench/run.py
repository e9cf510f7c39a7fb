"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload loo_tau_j --seed 1 --seconds 10 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` runs with span tracing on every other op and prints every
per-layer metric instead.  The last line of standard output is
``{"correct": …, "attempted": …, "failed": …, "metrics": {…}}``; a
per-run record with raw timings, the probe speed and the environment is
written under ``perfbench/runs/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("loo_tau_j", "loo_tau_m", "retrieval_pool", "served")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_program() -> bool:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}", file=sys.stderr)
        return False
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: repro was imported from {repro.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def _dispatch(ctx):
    # the workload modules import repro, so they load after _import_program
    if ctx.workload in ("loo_tau_j", "loo_tau_m"):
        import loo

        return loo.run(ctx, "jaccard" if ctx.workload == "loo_tau_j" else "model")
    if ctx.workload == "retrieval_pool":
        import pool

        return pool.run(ctx)
    import served

    return served.run(ctx)


def main(argv=None) -> int:
    args = _parse(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    if not _import_program():
        return 2
    from measure import environment

    ctx = SimpleNamespace(
        root=ROOT,
        here=HERE,
        work=os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}"),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
    )
    started = time.time()
    try:
        outcome = _dispatch(ctx)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    wanted = spec["per_layer" if ctx.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in outcome["metrics"]]
    if missing:
        print(f"perfbench: workload produced no {missing}", file=sys.stderr)
        return 3
    result = {
        "correct": not outcome["mismatches"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            m["name"]: {"value": float(outcome["metrics"][m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }
    record = {
        "workload": ctx.workload,
        "trace": ctx.trace,
        "seconds": ctx.seconds,
        "started_unix": started,
        "wall_s": time.time() - started,
        "environment": environment(ROOT, ctx.seed, outcome["probes"]),
        "failed_pct": 100.0 * outcome["failed"] / outcome["attempted"],
        "mismatches": outcome["mismatches"],
        "result": result,
        "details": outcome["record"],
    }
    runs = os.path.join(HERE, "runs")
    os.makedirs(runs, exist_ok=True)
    name = f"{ctx.workload}-seed{ctx.seed}-trace{int(ctx.trace)}-{time.time_ns()}.json"
    with open(os.path.join(runs, name), "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for mismatch in outcome["mismatches"][:20]:
        print(f"perfbench: MISMATCH {mismatch}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
