"""minipandas table-engine throughput: columnar kernels vs naive loops.

A sandbox-shaped statement mix — the hot ops every candidate script in a
beam wave actually executes (``fillna``, ``dropna``, ``duplicated``/
``drop_duplicates``, ``get_dummies``, boolean masks/``take``, groupby
aggregation) — timed two ways over the same mixed-dtype table:

* **kernel** — the live single-pass columnar kernels over shared
  copy-on-write payloads;
* **naive** — the row-at-a-time per-element ``iloc`` references in
  ``repro.minipandas._naive`` (the audit oracle, structurally the old
  implementation).

Every pair of results is checked bit-identical before any speed claim
counts.  Results are published to ``benchmarks/results/`` and the
machine-readable statements/sec to the repo-root ``BENCH_minipandas.json``.
The acceptance bar: the kernel path sustains at least 3x the naive
statements/sec on this workload.
"""

import json
import os
import statistics
import time

import numpy as np
import pytest

import repro.minipandas as mp
from repro.harness import render_table
from repro.minipandas import _naive as naive
from repro.minipandas import kernels

from _shared import bench_environment, publish

pytestmark = pytest.mark.perf

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_minipandas.json")

ROUNDS = 5
N_ROWS = 4000


@pytest.fixture(scope="module")
def bench_frame():
    rng = np.random.default_rng(11)
    return mp.DataFrame(
        {
            "A": rng.integers(0, 12, N_ROWS).tolist(),
            "B": rng.normal(120, 30, N_ROWS).round(1).tolist(),
            "C": [int(v) if v > 0 else None for v in rng.integers(-3, 80, N_ROWS)],
            "Sex": rng.choice(["m", "f", None], N_ROWS).tolist(),
            "Embarked": rng.choice(["S", "C", "Q", "__na__"], N_ROWS).tolist(),
            "Flag": rng.integers(0, 2, N_ROWS).astype(bool).tolist(),
        }
    )


def _statements(frame):
    """The sandbox-shaped statement mix: (name, kernel path, naive path).

    Both closures compute the same table from the same inputs; the naive
    side routes through :mod:`repro.minipandas._naive` (groupby builds its
    groups with the per-row ``iloc`` loop there too).
    """
    mask_keep = [pos for pos in range(len(frame)) if pos % 3 != 0]
    return [
        (
            "df.fillna(value)",
            lambda: frame.fillna({"C": 0, "Sex": "m"}),
            lambda: naive.fillna_frame(frame, {"C": 0, "Sex": "m"}),
        ),
        (
            "df.dropna()",
            lambda: frame.dropna(),
            lambda: naive.dropna_frame(frame, 0, "any", None, None),
        ),
        (
            "df.duplicated(subset)",
            lambda: frame.duplicated(subset=["A", "Sex"]),
            lambda: naive.duplicated_frame(frame, ["A", "Sex"]),
        ),
        (
            "df.drop_duplicates()",
            lambda: frame.drop_duplicates(subset=["A", "Embarked"]),
            lambda: naive.take_frame(
                frame,
                [
                    pos
                    for pos, flag in enumerate(
                        naive.duplicated_frame(frame, ["A", "Embarked"])
                    )
                    if not flag
                ],
            ),
        ),
        (
            "df[mask] / take",
            lambda: frame[frame["B"] < 150],
            lambda: naive.take_frame(
                frame,
                [
                    pos
                    for pos in range(len(frame))
                    if not mp.is_missing(frame["B"].iloc[pos])
                    and frame["B"].iloc[pos] < 150
                ],
            ),
        ),
        (
            "pd.get_dummies(df)",
            lambda: mp.get_dummies(frame, columns=["Sex", "Embarked"]),
            lambda: naive.get_dummies_frame(
                frame, ["Sex", "Embarked"], None, "_", False, int
            ),
        ),
        (
            "df.groupby(k).agg",
            lambda: frame.groupby("Embarked").agg("mean"),
            lambda: naive.groupby_agg_frame(
                frame,
                ["Embarked"],
                {c: "mean" for c in ("A", "B", "C", "Flag")},
            ),
        ),
        (
            "df.take(keep)",
            lambda: frame.take(mask_keep),
            lambda: naive.take_frame(frame, mask_keep),
        ),
    ]


def _rate(thunks):
    """Statements/sec for one path, median over ROUNDS sweeps."""
    rates = []
    for _ in range(ROUNDS):
        started = time.perf_counter()
        for thunk in thunks:
            thunk()
        elapsed = time.perf_counter() - started
        rates.append(len(thunks) / elapsed)
    return statistics.median(rates)


def test_perf_minipandas_kernels(bench_frame):
    statements = _statements(bench_frame)

    # bit-identity first: a fast wrong answer counts for nothing
    for name, kernel_path, naive_path in statements:
        kernel_result, naive_result = kernel_path(), naive_path()
        if isinstance(kernel_result, mp.DataFrame):
            assert kernels.frames_match(kernel_result, naive_result), name
        else:
            assert kernels.series_match(kernel_result, naive_result), name

    kernel_rate = _rate([kernel for _, kernel, _ in statements])
    naive_rate = _rate([ref for _, _, ref in statements])
    improvement = kernel_rate / naive_rate

    report = {
        "workload": {
            "rows": N_ROWS,
            "columns": len(bench_frame.columns),
            "statements": [name for name, _, _ in statements],
            "rounds": ROUNDS,
        },
        "statements_per_sec": {
            "kernel": round(kernel_rate, 1),
            "naive": round(naive_rate, 1),
        },
        "improvement_vs_naive": round(improvement, 2),
        "environment": bench_environment(),
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    publish(
        "perf_minipandas_kernels",
        render_table(
            ["path", "statements/sec", "vs naive"],
            [
                ["naive row-at-a-time", f"{naive_rate:.1f}", "1.0x"],
                ["columnar kernels", f"{kernel_rate:.1f}", f"{improvement:.1f}x"],
            ],
            title=(
                f"minipandas hot ops on a {N_ROWS}-row mixed-dtype table "
                f"({len(statements)}-statement sandbox mix)"
            ),
        )
        + f"\n[statements/sec recorded in {BENCH_JSON}]",
    )

    # the acceptance bar: the columnar kernels sustain at least 3x the
    # naive path's statement throughput on the sandbox-shaped workload
    assert improvement >= 3.0, report


def test_perf_kernels_audit_overhead_is_bounded(bench_frame):
    """The audit shadow-runs the naive path, so audited throughput should
    land near the naive rate — and, critically, raise nothing."""
    statements = _statements(bench_frame)
    with mp.kernel_audit():
        for _, kernel_path, _ in statements:
            kernel_path()  # AuditMismatchError here fails the benchmark
