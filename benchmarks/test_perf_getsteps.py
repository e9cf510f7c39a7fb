"""GetSteps scoring-engine throughput: full recount vs O(Δ) incremental.

A Figure-7-shaped search workload — a long user script standardized
against a peer corpus — run twice: by :class:`FullRecountSearch` (every
proposal re-walks the whole script through the full-recount oracle
``BeamSearch._projected_score``: ``compute_edge_counts`` +
``score_edge_counts``) and by ``BeamSearch`` (each visited candidate
recounted once, and every proposal scored off that edge state in O(Δ)).
The execution constraint is stubbed out so the measurement isolates the
scoring engine; the bit-identity contract is asserted before any speed
number counts.  CI runs the audit and one round of that assertion,
without the speed bar, as a blocking step.

Results are published to ``benchmarks/results/`` and the machine-readable
speedups to the repo-root ``BENCH_getsteps.json``.  The acceptance bar:
the incremental engine makes the GetSteps component at least 5x faster
(median of rounds) on the long-script workload.
"""

import json
import os
import random
import statistics
import time

import pytest

from repro.core import BeamSearch, LSConfig, RelativeEntropyScorer
from repro.harness import render_table
from repro.lang import CorpusVocabulary, parse_script

from _shared import bench_environment, publish

pytestmark = pytest.mark.perf

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_getsteps.json")

ROUNDS = 5
CORPUS_SCRIPTS = 18
USER_BODY_STATEMENTS = 90
SEQ = 6
BEAM_SIZE = 3

#: The usual data-preparation step shapes (fill/filter/encode/derive …).
STEP_POOL = [
    "df = df.fillna(df.mean())",
    "df = df.fillna(df.median())",
    "df = df.dropna()",
    "df = df[df['x'] < 80]",
    "df = pd.get_dummies(df)",
    "df['y'] = df['x'] * 2",
    "df = df.drop('z', axis=1)",
    "df = df.sort_values('x')",
    "df = df.reset_index(drop=True)",
    "df = df.drop_duplicates()",
    "df['z'] = df['y'] - 1",
    "df = df.rename(columns={'a': 'b'})",
]


def _build(body):
    return "\n".join(["import pandas as pd", "df = pd.read_csv('t.csv')"] + body)


def _workload():
    rng = random.Random(7)
    corpus = [
        _build([rng.choice(STEP_POOL) for _ in range(rng.randint(3, 8))])
        for _ in range(CORPUS_SCRIPTS)
    ]
    user = _build([rng.choice(STEP_POOL) for _ in range(USER_BODY_STATEMENTS)])
    return corpus, user


class FullRecountSearch(BeamSearch):
    """GetSteps scoring every proposal by full recount, the oracle."""

    def _delta_score(self, candidate, edge_state, re_stats, transformation):
        return self._projected_score(candidate.statements, transformation)


def _run_search(vocabulary, user, search_class):
    scorer = RelativeEntropyScorer(vocabulary)
    config = LSConfig(seq=SEQ, beam_size=BEAM_SIZE)
    search = search_class(vocabulary, scorer, config, exec_checker=lambda s: True)
    statements = list(parse_script(user).statements)
    started = time.perf_counter()
    result = search.search(statements)
    wall_s = time.perf_counter() - started
    search.sync_cache_stats()
    return (
        [(c.source(), c.score) for c in result],
        search.stats.breakdown()["GetSteps"],
        wall_s,
        search.stats,
    )


def test_perf_getsteps_incremental_scoring():
    corpus, user = _workload()
    vocabulary = CorpusVocabulary.from_scripts(corpus)

    on_getsteps, off_getsteps, on_walls, off_walls = [], [], [], []
    for _ in range(ROUNDS):
        on_result, on_g, on_w, on_stats = _run_search(vocabulary, user, BeamSearch)
        off_result, off_g, off_w, _ = _run_search(vocabulary, user, FullRecountSearch)
        # bit-identity first: same candidates, same order, same scores
        assert on_result == off_result
        on_getsteps.append(on_g)
        off_getsteps.append(off_g)
        on_walls.append(on_w)
        off_walls.append(off_w)

    on_ms = statistics.median(on_getsteps) * 1000
    off_ms = statistics.median(off_getsteps) * 1000
    getsteps_speedup = off_ms / on_ms
    wall_speedup = statistics.median(off_walls) / statistics.median(on_walls)

    report = {
        "workload": {
            "corpus_scripts": CORPUS_SCRIPTS,
            "user_statements": USER_BODY_STATEMENTS + 2,
            "seq": SEQ,
            "beam_size": BEAM_SIZE,
            "rounds": ROUNDS,
        },
        "median_getsteps_ms": {
            "full_recount": round(off_ms, 3),
            "incremental": round(on_ms, 3),
        },
        "getsteps_speedup": round(getsteps_speedup, 2),
        "search_wall_speedup": round(wall_speedup, 2),
        "delta_scores": on_stats.n_delta_scores,
        "full_recounts": on_stats.n_full_recounts,
        "environment": bench_environment(),
    }
    with open(BENCH_JSON, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    publish(
        "perf_getsteps_scoring",
        render_table(
            ["scoring engine", "median GetSteps (ms)", "speedup"],
            [
                ["full recount per proposal", f"{off_ms:.1f}", "1.0x"],
                ["incremental O(Δ) deltas", f"{on_ms:.1f}",
                 f"{getsteps_speedup:.1f}x"],
            ],
            title=(
                f"GetSteps scoring on a {USER_BODY_STATEMENTS + 2}-statement "
                f"script ({CORPUS_SCRIPTS}-script corpus, seq={SEQ}, "
                f"K={BEAM_SIZE})"
            ),
        )
        + f"\n[speedups recorded in {BENCH_JSON}]",
    )

    # the acceptance bar: delta scoring at least quintuples GetSteps
    # throughput on the long-script workload
    assert getsteps_speedup >= 5.0, report
    _assert_recounts_per_visit(on_stats)


def _assert_recounts_per_visit(stats):
    """The engine ran incrementally: at most one full recount per visited
    beam per iteration, never one per proposal."""
    assert 0 < stats.n_full_recounts <= SEQ * BEAM_SIZE < stats.n_delta_scores


def test_perf_getsteps_matches_the_full_recount():
    """One round of the bench's bit-identity assertion, with no speed bar."""
    corpus, user = _workload()
    vocabulary = CorpusVocabulary.from_scripts(corpus)
    on_result, _, _, on_stats = _run_search(vocabulary, user, BeamSearch)
    off_result, _, _, _ = _run_search(vocabulary, user, FullRecountSearch)
    assert on_result == off_result
    _assert_recounts_per_visit(on_stats)


def test_perf_getsteps_verify_mode_is_clean():
    """Self-audit: audit mode cross-checks every delta score against the
    full recount and raises on any divergence; a clean pass on the bench
    workload is the engine's receipt."""
    corpus, user = _workload()
    vocabulary = CorpusVocabulary.from_scripts(corpus)
    scorer = RelativeEntropyScorer(vocabulary)
    config = LSConfig(seq=3, beam_size=2, audit=True)
    search = BeamSearch(vocabulary, scorer, config, exec_checker=lambda s: True)
    search.search(list(parse_script(user).statements))
    search.sync_cache_stats()
    assert search.stats.n_delta_scores > 0
