"""Seeded inputs: competitions, extra scripts, op orders and arrival schedules.

Everything a run feeds the program is a function of ``--seed``: the six
synthetic competitions come from :func:`repro.workloads.build_competition`
with that seed, extra scripts from :func:`repro.workloads.generate_scripts`
driven by a second generator derived from it, and every order or schedule
from further derived generators.  The program only ever sees the
generated scripts and CSV files.
"""

from __future__ import annotations

import os
import shutil
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.workloads import SPECS, ScriptCorpus, build_competition, competition_names, generate_scripts

#: Row counts that differ from the competition's spec.  Searches sample
#: 500 rows, so the 40k-row sales table only lengthens the CSV write and
#: parse in set-up; 8k rows keep set-up short enough to repeat.
ROWS = {"sales": 8000}

#: Sub-streams of the seed, one per kind of input.
EXTRA_SCRIPTS, PAIR_ORDER, SCHEDULE, SAMPLE = 1, 2, 3, 4


def rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def competitions(root: str, seed: int) -> Dict[str, ScriptCorpus]:
    """The six competitions, written under *root*."""
    return {
        name: build_competition(name, root, seed=seed, n_rows=ROWS.get(name))
        for name in competition_names()
    }


def extra_scripts(
    comps: Dict[str, ScriptCorpus], seed: int, per_competition: int
) -> Dict[str, List[str]]:
    """Never-seen scripts per competition, distinct from its corpus and
    from each other (the second generator of the seed)."""
    generator = rng(seed, EXTRA_SCRIPTS)
    out: Dict[str, List[str]] = {}
    for name, corpus in comps.items():
        scripts, _ = generate_scripts(
            SPECS[name], corpus.data_dir, generator, n_scripts=per_competition
        )
        seen = set(corpus.scripts)
        fresh = []
        for script in scripts:
            if script not in seen:
                seen.add(script)
                fresh.append(script)
        out[name] = fresh
    return out


def stratified_pairs(
    comps: Dict[str, ScriptCorpus], n_ops: int, seed: int
) -> Tuple[List[Tuple[str, int]], List[Tuple[str, int]]]:
    """Leave-one-out pairs ``(competition, held-out index)``.

    Returns one warm-up pair per competition and *n_ops* timed pairs,
    disjoint from the warm-up ones and from each other.  Each
    competition contributes in proportion to its corpus size, so every
    seed runs the same mix; the timed pairs are interleaved in a seeded
    order.
    """
    generator = rng(seed, PAIR_ORDER)
    sizes = {name: len(corpus) for name, corpus in comps.items()}
    capacity = sum(size - 1 for size in sizes.values())
    n_ops = min(n_ops, capacity)
    total = sum(sizes.values())
    shares = {name: n_ops * size / total for name, size in sizes.items()}
    quota = {name: min(int(share), sizes[name] - 1) for name, share in shares.items()}
    by_remainder = sorted(shares, key=lambda name: shares[name] - int(shares[name]), reverse=True)
    while sum(quota.values()) < n_ops:
        for name in by_remainder:
            if sum(quota.values()) < n_ops and quota[name] < sizes[name] - 1:
                quota[name] += 1
    warmup, timed = [], []
    for name in comps:
        order = generator.permutation(sizes[name]).tolist()
        warmup.append((name, order[0]))
        timed.extend((name, index) for index in order[1: 1 + quota[name]])
    generator.shuffle(timed)
    return warmup, timed


def sample_positions(n: int, k: int, seed: int) -> List[int]:
    """A seeded sample of *k* positions out of *n*, in order."""
    k = min(k, n)
    return sorted(rng(seed, SAMPLE).choice(n, size=k, replace=False).tolist())


def leave_one_out(corpus: ScriptCorpus, index: int) -> Tuple[str, Sequence[str]]:
    scripts = corpus.scripts
    return scripts[index], scripts[:index] + scripts[index + 1:]
