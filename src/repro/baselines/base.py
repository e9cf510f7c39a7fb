"""Common interface for the competing methods of Section 6.1.1."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

__all__ = ["Baseline", "BaselineResult"]


@dataclass
class BaselineResult:
    """A baseline's rewrite of one input script."""

    method: str
    input_script: str
    output_script: str

    @property
    def changed(self) -> bool:
        return self.output_script != self.input_script


class Baseline(ABC):
    """A competing script-rewriting method.

    Unlike LucidScript, baselines receive no execution or user-intent
    oracle — mirroring how the paper ran them (Sourcery and the GPT models
    emit code without constraint checking; Auto-Suggest/Auto-Tables operate
    on the table, not the script semantics).
    """

    name: str = "baseline"

    @abstractmethod
    def rewrite(self, script: str, corpus: Sequence[str]) -> str:
        """Return the method's version of *script* given corpus access."""

    def run(self, script: str, corpus: Sequence[str]) -> BaselineResult:
        return BaselineResult(
            method=self.name,
            input_script=script,
            output_script=self.rewrite(script, corpus),
        )
