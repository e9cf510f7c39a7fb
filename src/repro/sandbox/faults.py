"""Deterministic fault injection for sandbox fault-tolerance tests.

The execution-budget layer (script and statement watchdog timeouts)
only matters when candidate scripts misbehave, and real misbehaving
candidates are awkward to conjure on demand.  This module builds them
deterministically: a small taxonomy of fault statements, a
rewriter that splices one into any script at a chosen top-level
statement position, and an :class:`IncrementalExecutor` wrapper that
injects the fault into every script matching a predicate — which is how
the tests plant a ``while True: pass`` inside one specific beam-search
candidate without touching the search itself.

Every fault is pure Python and reproducible: no sleeping, no randomness,
no dependence on machine speed for *whether* the fault fires (only for
how fast the watchdog notices it).
"""

from __future__ import annotations

from typing import Callable, Union

from .._astparse import ast_parse
from .incremental import IncrementalExecutor

__all__ = ["FAULT_KINDS", "fault_snippet", "spin_snippet", "inject_fault",
           "FaultInjectingExecutor"]

#: The failure taxonomy the budget layer is tested against.
#:
#: ``hang``
#:     An unbounded pure-Python loop — the canonical pathology the
#:     watchdog's trace hook interrupts (`while True: pass`).
#: ``stubborn_hang``
#:     A hang that swallows the watchdog's one-shot ``ExecTimeout``
#:     (CPython unsets a trace function once it raises) and keeps
#:     spinning.  Nothing in the process stops it: the watchdog fires
#:     once and the script runs on.  It documents an open gap in the
#:     budget layer, not a defended case.
#: ``crash``
#:     An ordinary script error, for checking that real faults are not
#:     misclassified as timeouts.
#: ``oom``
#:     Allocation churn — an unbounded loop that keeps allocating and
#:     recycling buffers (capped at ~8 MiB resident so the *test*
#:     process is never at risk), shaped like a runaway feature builder.
_FAULT_SNIPPETS = {
    "hang": "while True:\n    pass",
    "stubborn_hang": (
        "while True:\n"
        "    try:\n"
        "        while True:\n"
        "            pass\n"
        "    except BaseException:\n"
        "        pass"
    ),
    "crash": "raise RuntimeError('injected fault: crash')",
    "oom": (
        "_fault_hog = []\n"
        "while True:\n"
        "    _fault_hog.append(bytearray(4096))\n"
        "    if len(_fault_hog) >= 2048:\n"
        "        _fault_hog = []"
    ),
}

FAULT_KINDS = tuple(sorted(_FAULT_SNIPPETS))


def fault_snippet(kind: str) -> str:
    """The source text of one fault from the taxonomy above."""
    if kind not in _FAULT_SNIPPETS:
        raise ValueError(f"unknown fault kind {kind!r}; choose from {FAULT_KINDS}")
    return _FAULT_SNIPPETS[kind]


def spin_snippet(iterations: int) -> str:
    """A busy loop that *does* terminate after *iterations* steps.

    The slow-but-finite case: under a generous budget it must pass, so
    tests can show the watchdog only kills scripts that actually exceed
    their budget.
    """
    return f"for _fault_spin in range({int(iterations)}):\n    pass"


def inject_fault(source: str, kind: str, position: int = 0) -> str:
    """Splice the *kind* fault before top-level statement *position*.

    *position* indexes the script's top-level statements and is clamped
    to the script's length (so ``position=10**9`` appends the fault at
    the end — after every real statement has run).  The rest of the
    script is preserved verbatim, which keeps shared-prefix snapshots
    meaningful when the faulted script runs through the incremental
    executor.
    """
    snippet = fault_snippet(kind)
    tree = ast_parse(source)
    if not tree.body:
        return snippet
    position = max(0, min(position, len(tree.body)))
    lines = source.splitlines()
    if position == len(tree.body):
        insert_at = len(lines)
    else:
        insert_at = tree.body[position].lineno - 1  # lineno is 1-based
    return "\n".join(lines[:insert_at] + snippet.splitlines() + lines[insert_at:])


class FaultInjectingExecutor(IncrementalExecutor):
    """An :class:`IncrementalExecutor` that sabotages matching scripts.

    Every script whose source matches *match* (a substring, or a
    predicate over the source) is rewritten with :func:`inject_fault`
    before execution; everything else runs untouched.  Handing one of
    these to :class:`repro.core.BeamSearch` plants a pathological
    candidate inside a real search — the fault-tolerance tests' way of
    proving a hang is skipped while the search completes.
    """

    def __init__(
        self,
        *args,
        match: Union[str, Callable[[str], bool]],
        kind: str = "hang",
        position: int = 0,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        fault_snippet(kind)  # validate eagerly
        self._match = match
        self._kind = kind
        self._position = position
        self.injected_sources: list = []

    def _matches(self, source: str) -> bool:
        if callable(self._match):
            return bool(self._match(source))
        return self._match in source

    def run_script(self, source, extra_globals=None, *, segments=None):
        if self._matches(source):
            self.injected_sources.append(source)
            source = inject_fault(source, self._kind, self._position)
            segments = None  # they split the script before the fault
        return super().run_script(
            source, extra_globals=extra_globals, segments=segments
        )
