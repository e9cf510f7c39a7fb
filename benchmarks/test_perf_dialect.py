"""Dialect-subsystem smoke: abstraction overhead + cross-dialect parity.

The ApiDialect layer replaced hardcoded pandas plumbing in the sandbox,
lang, and corpus layers; its contract is that the pandas path is
*bit-identical by construction* and pays no measurable per-call cost.
Two gates run before any number is recorded:

- ``verify_dialect()``: every dialect with a recorded fixture (pandas —
  captured with the pre-refactor pipeline — and tablereport) must replay
  its standardization case byte-for-byte, down to float reprs;
- the tablereport fixture case must *reduce* relative entropy, proving
  the subsystem standardizes a genuinely non-pandas corpus end to end.

Timed: per-call sandbox namespace assembly (the dialect-resolved module
table, the hot allocation of every ``check_executes``) for both
dialects, and the wall time of each dialect's full fixture
standardization.  Results land in ``BENCH_dialect.json`` for the CI
perf-smoke artifact trail.
"""

import json
import os
import statistics
import time

import pytest

from repro.dialects import get_dialect
from repro.dialects.cases import run_case
from repro.dialects.verify import verify_dialect
from repro.harness import render_table
from repro.sandbox.runner import build_sandbox_namespace

from _shared import bench_environment, publish

pytestmark = pytest.mark.perf

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_dialect.json")

NAMESPACE_ROUNDS = 200


def _namespace_ms(dialect_name: str) -> float:
    """Median per-call cost of a dialect-resolved sandbox namespace."""
    dialect = get_dialect(dialect_name)
    samples = []
    for _ in range(NAMESPACE_ROUNDS):
        started = time.perf_counter()
        build_sandbox_namespace(dialect=dialect)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples) * 1000


def test_perf_dialect_parity_and_overhead():
    # ------------------------------------------------- correctness gates
    records = verify_dialect()  # raises AuditMismatchError on any drift
    assert set(records) >= {"pandas", "tablereport"}

    # the second dialect genuinely standardizes: entropy must go down
    tablereport = records["tablereport"]
    assert float(eval(tablereport["re_after"])) < float(
        eval(tablereport["re_before"])
    )
    assert tablereport["intent_satisfied"] is True

    # ------------------------------------------------------------ timing
    case_ms = {}
    for name in ("pandas", "tablereport"):
        started = time.perf_counter()
        run_case(name)
        case_ms[name] = (time.perf_counter() - started) * 1000

    namespace_ms = {name: _namespace_ms(name) for name in ("pandas", "tablereport")}

    report = {
        "fixture_case_ms": {k: round(v, 3) for k, v in case_ms.items()},
        "namespace_build_ms": {k: round(v, 4) for k, v in namespace_ms.items()},
        "namespace_rounds": NAMESPACE_ROUNDS,
        "verified_dialects": sorted(records),
        "tablereport_re_before": tablereport["re_before"],
        "tablereport_re_after": tablereport["re_after"],
        "environment": bench_environment(),
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    publish(
        "perf_dialect",
        render_table(
            ["dialect", "fixture case (ms)", "namespace build (ms)"],
            [
                [name, f"{case_ms[name]:.1f}", f"{namespace_ms[name]:.3f}"]
                for name in ("pandas", "tablereport")
            ],
            title="Dialect audit: byte-identical replays + per-call overhead",
        )
        + f"\n[recorded in {BENCH_JSON}]",
    )

    # namespace assembly is a per-check allocation: keep it far below a
    # single sandboxed statement's cost (loose bound — catches only
    # pathological regressions, not scheduler noise)
    for name, cost in namespace_ms.items():
        assert cost < 5.0, report
