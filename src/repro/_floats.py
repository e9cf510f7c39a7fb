"""Float reductions whose result does not depend on the interpreter."""

from __future__ import annotations

from typing import Iterable

__all__ = ["left_sum"]


def left_sum(values: Iterable[float]) -> float:
    """The sum of *values*, added one at a time left to right from 0.0.

    This is the arithmetic of Python 3.11's builtin ``sum()`` over floats.
    Python 3.12 made ``sum()`` compensated, which would make results that
    go through it depend on the interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total
