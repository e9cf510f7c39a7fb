"""Pluggable API dialects: which call surface a corpus standardizes.

A dialect bundles everything API-specific — recognized call surface,
sandbox shim, intent contract — behind :class:`ApiDialect` (see
``base.py`` for the protocol).  The rest of the system carries only the
dialect *name* (through ``LSConfig``, corpus records and snapshots,
server jobs) and resolves it here.

Registered out of the box:

* ``pandas`` — the historical default, bit-identical to the
  pre-dialect pipeline (audited by ``verify_dialect``);
* ``tablereport`` — the generality proof: an EDA-style
  design-in/report-out surface with its own stub API module.
"""

from __future__ import annotations

from typing import Dict, List

from .base import ApiDialect, ModuleProxy, TableLoader, UnknownDialectError
from .pandas_dialect import PandasDialect
from .tablereport import TablereportDialect

__all__ = [
    "ApiDialect",
    "ModuleProxy",
    "PandasDialect",
    "TableLoader",
    "TablereportDialect",
    "UnknownDialectError",
    "dialect_names",
    "get_dialect",
    "register_dialect",
    "resolve_dialect",
]

_REGISTRY: Dict[str, ApiDialect] = {}


def register_dialect(dialect: ApiDialect) -> ApiDialect:
    """Add *dialect* to the process-wide registry (idempotent by name)."""
    _REGISTRY[dialect.name] = dialect
    return dialect


def get_dialect(name: str) -> ApiDialect:
    """Resolve a dialect name; unknown names list what is registered."""
    try:
        return _REGISTRY[name]
    except KeyError:
        registered = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise UnknownDialectError(
            f"unknown dialect {name!r}; registered dialects: {registered}"
        ) from None


def dialect_names() -> List[str]:
    """Sorted names of every registered dialect."""
    return sorted(_REGISTRY)


def resolve_dialect(dialect=None) -> ApiDialect:
    """Normalize a dialect argument: name, instance, or None (pandas)."""
    if dialect is None:
        return _REGISTRY["pandas"]
    if isinstance(dialect, str):
        return get_dialect(dialect)
    return dialect


register_dialect(PandasDialect())
register_dialect(TablereportDialect())
