"""Intent-verification throughput: naive pairwise vs content-addressed.

A VerifyAllConstraints-shaped workload — one wide, NA-heavy original
output checked against a simulated 200-candidate wave in which most
candidates perturb only 0-3 columns and about a fifth are content-
identical to the original — run through the naive pairwise measure
(both cell sets rebuilt per check) and the prepared
:class:`repro.core.intent.PreparedTableJaccard` engine (original frozen
once, per-column fingerprint memo shared across the wave).  Bit-identity
of every delta is asserted before any speed number counts.

Results are published to ``benchmarks/results/`` and the machine-readable
speedups to the repo-root ``BENCH_intent.json``.  The acceptance bar:
the prepared engine makes the median intent check at least 5x faster on
the decomposed ``cells`` mode.
"""

import json
import os
import random
import statistics
import time

import pytest

from repro.core import IntentStats, TableJaccardIntent
from repro.harness import render_table
from repro.minipandas import NA, DataFrame

from _shared import bench_environment, publish

pytestmark = pytest.mark.perf

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_intent.json")

ROUNDS = 3
N_ROWS = 600
N_COLS = 44
WAVE = 200
NA_RATE = 0.3
IDENTICAL_SHARE = 0.2
MODES = ("cells", "values", "rows")


def _original(rng):
    data = {}
    for c in range(N_COLS):
        if c % 3 == 0:
            pool = lambda: rng.randrange(0, 40)
        elif c % 3 == 1:
            pool = lambda: round(rng.uniform(-5.0, 5.0), 2)
        else:
            pool = lambda: rng.choice(["low", "mid", "high", "n/a", ""])
        data[f"col_{c:02d}"] = [
            NA if rng.random() < NA_RATE else pool() for _ in range(N_ROWS)
        ]
    return DataFrame(data)


def _wave(rng, original):
    """200 candidates: ~20% identical, the rest perturb 0-3 columns."""
    names = list(original.columns)
    base = {name: original[name].tolist() for name in names}
    candidates = []
    for _ in range(WAVE):
        if rng.random() < IDENTICAL_SHARE:
            candidates.append(original.copy())
            continue
        data = {name: values for name, values in base.items()}
        for name in rng.sample(names, rng.randrange(0, 4)):
            values = list(data[name])
            for _ in range(rng.randrange(1, 6)):
                values[rng.randrange(N_ROWS)] = rng.choice(
                    [NA, "perturbed", -1, 9.99]
                )
            data[name] = values
        candidates.append(DataFrame(data))
    return candidates


def _time_naive(intent, original, candidates):
    started = time.perf_counter()
    results = [intent.check(original, candidate) for candidate in candidates]
    return results, time.perf_counter() - started


def _time_prepared(intent, original, candidates, counters):
    started = time.perf_counter()
    prepared = intent.prepare(original, counters=counters)
    results = [prepared.check(candidate) for candidate in candidates]
    return results, time.perf_counter() - started


def test_perf_intent_prepared_wave():
    rng = random.Random(11)
    original = _original(rng)

    per_mode = {}
    counters = {mode: IntentStats() for mode in MODES}
    for mode in MODES:
        intent = TableJaccardIntent(tau=0.5, mode=mode)
        naive_s, prepared_s = [], []
        for round_no in range(ROUNDS):
            wave = _wave(random.Random(100 + round_no), original)
            naive_results, naive_wall = _time_naive(intent, original, wave)
            prepared_results, prepared_wall = _time_prepared(
                intent, original, wave, counters[mode]
            )
            # bit-identity first: every (delta, verdict) pair must match
            assert prepared_results == naive_results
            naive_s.append(naive_wall)
            prepared_s.append(prepared_wall)
        naive_ms = statistics.median(naive_s) / WAVE * 1000
        prepared_ms = statistics.median(prepared_s) / WAVE * 1000
        per_mode[mode] = {
            "naive_check_ms": round(naive_ms, 4),
            "prepared_check_ms": round(prepared_ms, 4),
            "speedup": round(naive_ms / prepared_ms, 2),
        }

    headline = per_mode["cells"]["speedup"]
    cells = counters["cells"]
    report = {
        "workload": {
            "rows": N_ROWS,
            "columns": N_COLS,
            "wave_candidates": WAVE,
            "na_rate": NA_RATE,
            "identical_share": IDENTICAL_SHARE,
            "rounds": ROUNDS,
        },
        "modes": per_mode,
        "intent_check_speedup": headline,
        "cells_counters": {
            "checks": cells.checks,
            "column_set_reuse": cells.column_set_reuse,
            "short_circuits": cells.short_circuits,
        },
        "environment": bench_environment(),
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    publish(
        "perf_intent_engine",
        render_table(
            ["mode", "naive check (ms)", "prepared check (ms)", "speedup"],
            [
                [
                    mode,
                    f"{per_mode[mode]['naive_check_ms']:.2f}",
                    f"{per_mode[mode]['prepared_check_ms']:.2f}",
                    f"{per_mode[mode]['speedup']:.1f}x",
                ]
                for mode in MODES
            ],
            title=(
                f"Intent checks on a {N_ROWS}x{N_COLS} NA-heavy table, "
                f"{WAVE}-candidate wave (median of {ROUNDS} rounds)"
            ),
        )
        + f"\n[speedups recorded in {BENCH_JSON}]",
    )

    # the acceptance bar: the decomposed cells mode at least quintuples
    # per-check throughput on the wide-table wave
    assert headline >= 5.0, report
    # the engine really ran incrementally: unchanged columns answered from
    # the memo and identical candidates short-circuited
    assert cells.column_set_reuse > 0
    assert cells.short_circuits > 0


def test_perf_intent_verify_mode_is_clean():
    """Self-audit: verify mode recomputes every prepared delta through the
    naive path and raises on any float divergence; a clean pass over a
    candidate wave is the engine's receipt."""
    rng = random.Random(23)
    original = _original(rng)
    counters = IntentStats()
    prepared = TableJaccardIntent(tau=0.5, mode="cells").prepare(
        original, counters=counters, verify=True
    )
    for candidate in _wave(random.Random(5), original)[:40]:
        prepared.check(candidate)
    assert counters.checks == 40
