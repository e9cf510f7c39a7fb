"""Simulated GPT-3.5 / GPT-4 baselines (Section 6.1.1-6.1.2).

The real GPT baselines are network services; this offline simulation
reproduces their *observed* behaviour on the script-standardization task
(Table 5): near-zero median improvement, a positive tail when the model
happens to imitate the prompt's corpus scripts well, and a heavy negative
tail when it rewrites steps into equivalent-but-nonstandard code (the
paper observed down to -129%).

Mechanism, mirroring the paper's best surveyed prompt ("here are 4 corpus
scripts; improve the user script"):

* with some probability the model judges the script fine and returns it
  (normalized) unchanged — GPT-4 does this more often;
* otherwise it keeps most user steps, occasionally *rephrasing* one into
  equivalent code the corpus never uses, or dropping one;
* it copies a few steps from its 4-script prompt window, inserting each
  right after a line it followed in the prompt (LLMs are good at local
  imitation) — these are the corpus-aligned, improvement-positive edits;
* it sprinkles in "internet-popular" generic steps the corpus does not
  use (improvement-negative);
* it never checks the execution or user-intent constraints.

GPT-4 differs from GPT-3.5 only in its mix: more no-ops, fewer
rephrasings, more prompt imitation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..lang import ScriptError, lemmatize
from .base import Baseline

__all__ = ["SimulatedLLM", "LLMProfile", "gpt35", "gpt4"]

#: Steps popular in global training data but absent from our corpora.
_GENERIC_STEPS = (
    "df = df.dropna()",
    "df = df.reset_index(drop=True)",
    "df = df.drop_duplicates()",
    "df = df.fillna(0)",
)

#: Rephrasing templates: semantically close, representationally different.
_REPHRASE_SUFFIXES = (
    ".copy()",
    ".reset_index(drop=True)",
)


@dataclass(frozen=True)
class LLMProfile:
    """Behavioural mix of one model generation."""

    label: str
    noop_probability: float
    keep_probability: float
    rephrase_probability: float
    prompt_copy_rate: float
    generic_rate: float
    prompt_scripts: int = 4


_GPT35 = LLMProfile(
    label="GPT-3.5",
    noop_probability=0.25,
    keep_probability=0.95,
    rephrase_probability=0.06,
    prompt_copy_rate=1.0,
    generic_rate=0.3,
)
_GPT4 = LLMProfile(
    label="GPT-4",
    noop_probability=0.35,
    keep_probability=0.98,
    rephrase_probability=0.02,
    prompt_copy_rate=1.5,
    generic_rate=0.12,
)


def _is_protected(line: str) -> bool:
    stripped = line.strip()
    return (
        stripped.startswith("import ")
        or stripped.startswith("from ")
        or "read_csv" in stripped
    )


def _is_tail(line: str) -> bool:
    stripped = line.strip()
    return stripped.startswith("y =") or stripped.startswith("X =")


class SimulatedLLM(Baseline):
    """An offline stand-in for a GPT-class code rewriter."""

    def __init__(self, profile: LLMProfile, seed: int = 0):
        self.profile = profile
        self.name = profile.label
        self._rng = np.random.default_rng(seed)

    def rewrite(self, script: str, corpus: Sequence[str]) -> str:
        rng = self._rng
        try:
            normalized = lemmatize(script)
        except ScriptError:
            return script
        if rng.random() < self.profile.noop_probability:
            return normalized
        lines = normalized.splitlines()

        follows = self._prompt_orderings(corpus, rng)
        existing = set(lines)

        body: List[str] = []
        tail: List[str] = []
        for line in lines:
            if _is_tail(line):
                tail.append(line)
                continue
            if _is_protected(line):
                body.append(line)
                continue
            if rng.random() > self.profile.keep_probability:
                continue  # dropped a user step
            if rng.random() < self.profile.rephrase_probability:
                body.append(self._rephrase(line, rng))
            else:
                body.append(line)

        body = self._imitate_prompt(body, follows, existing, rng)

        n_generic = int(rng.poisson(self.profile.generic_rate))
        generic = [s for s in _GENERIC_STEPS if s not in existing]
        rng.shuffle(generic)
        body.extend(generic[:n_generic])

        return "\n".join(body + tail)

    # ------------------------------------------------------------- internals
    def _prompt_orderings(
        self, corpus: Sequence[str], rng: np.random.Generator
    ) -> Dict[str, List[str]]:
        """line -> lines observed to directly follow it in the prompt window."""
        follows: Dict[str, List[str]] = {}
        if not corpus:
            return follows
        n = min(self.profile.prompt_scripts, len(corpus))
        picks = rng.choice(len(corpus), size=n, replace=False)
        for pick in picks:
            try:
                normalized = lemmatize(corpus[int(pick)])
            except ScriptError:
                continue
            prompt_lines = [
                line for line in normalized.splitlines() if not _is_tail(line)
            ]
            for previous, current in zip(prompt_lines, prompt_lines[1:]):
                if _is_protected(current):
                    continue
                follows.setdefault(previous, []).append(current)
        return follows

    def _imitate_prompt(
        self,
        body: List[str],
        follows: Dict[str, List[str]],
        existing: set,
        rng: np.random.Generator,
    ) -> List[str]:
        """Insert prompt steps after lines they followed in the prompt."""
        n_copies = int(rng.poisson(self.profile.prompt_copy_rate))
        out = list(body)
        for _ in range(n_copies):
            positions = list(range(len(out)))
            rng.shuffle(positions)
            inserted = False
            for pos in positions:
                successors = [
                    s
                    for s in follows.get(out[pos], [])
                    if s not in existing and s not in out
                ]
                if successors:
                    step = successors[int(rng.integers(0, len(successors)))]
                    out.insert(pos + 1, step)
                    inserted = True
                    break
            if not inserted:
                break
        return out

    @staticmethod
    def _rephrase(line: str, rng: np.random.Generator) -> str:
        """Rewrite a step into equivalent-but-nonstandard code."""
        stripped = line.strip()
        suffix = _REPHRASE_SUFFIXES[int(rng.integers(0, len(_REPHRASE_SUFFIXES)))]
        if stripped.startswith("df = ") and stripped.endswith(")"):
            return stripped + suffix
        return stripped


def gpt35(seed: int = 0) -> SimulatedLLM:
    """The simulated GPT-3.5 baseline."""
    return SimulatedLLM(_GPT35, seed=seed)


def gpt4(seed: int = 0) -> SimulatedLLM:
    """The simulated GPT-4 baseline."""
    return SimulatedLLM(_GPT4, seed=seed)
