"""``verify_dialect`` — audit that the dialect layer changed nothing.

Replays each dialect's recorded fixture case through the live pipeline
and compares every field byte-for-byte (floats via exact ``repr``)
against the record on disk; any divergence raises
:class:`~repro.core.AuditMismatchError` (layer ``dialect``).  The
pandas record was captured *before* the dialect refactor, so a pass
proves the extracted :class:`PandasDialect` reproduces the pre-refactor
pipeline exactly; the tablereport record pins the second dialect
against regressions.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional

from .._audit import AuditMismatchError
from .cases import fixture_path, run_case

__all__ = ["verify_dialect"]


def _compare(name: str, recorded: Dict, live: Dict) -> None:
    for key in sorted(set(recorded) | set(live)):
        if recorded.get(key) != live.get(key):
            raise AuditMismatchError(
                "dialect",
                f"{name}: field {key!r} diverged from the "
                f"recorded fixture\n  recorded: {recorded.get(key)!r}\n"
                f"  live:     {live.get(key)!r}"
            )


def verify_dialect(names: Optional[List[str]] = None) -> Dict[str, Dict]:
    """Replay recorded fixtures; raise on any byte-level divergence.

    Returns the live records (keyed by dialect) on success so callers
    can display what was checked.
    """
    if names is None:
        from . import dialect_names

        names = [n for n in dialect_names() if os.path.exists(fixture_path(n))]
    results: Dict[str, Dict] = {}
    for name in names:
        path = fixture_path(name)
        if not os.path.exists(path):
            raise AuditMismatchError(
                "dialect", f"{name}: no recorded fixture at {path}"
            )
        with open(path) as handle:
            recorded = json.load(handle)
        live = run_case(name)
        _compare(name, recorded, live)
        results[name] = live
    return results
