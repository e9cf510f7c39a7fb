"""Kernel helpers and the kernel-audit machinery for minipandas.

The hot table ops (``fillna``, ``dropna``, ``duplicated``/
``drop_duplicates``, ``get_dummies``, boolean masks/``take``, groupby
aggregation) run as single-pass columnar kernels over shared
copy-on-write column payloads (typed arrays or lists, see
:mod:`repro.minipandas.series`).  This module holds what those kernels
share:

* the **dedup-key conventions** — a unique object sentinel for missing
  cells (a genuine ``"__na__"`` string can never collide with NA) and a
  repr-key fallback for unhashable cell values (a cell holding a list
  must not abort a search wave with ``TypeError``);
* the **audit mode** behind ``LSConfig.audit`` — a process-wide switch
  that makes every kernel shadow-run the naive row-at-a-time reference
  implementation (:mod:`repro.minipandas._naive`) and raise
  :class:`~repro.core.AuditMismatchError` (layer ``kernel``) on any
  divergence.  The kernels are bit-identical to the references by
  construction; the audit exists to *prove* that on live workloads, not
  for production.  Inside a sandboxed script a mismatch is not the
  script's failure: while the switch is on, the sandbox lets it
  propagate.

The audit flag is deliberately module-global: the sandbox executes
candidate scripts against this substrate in-process, so one switch
covers every frame the search touches.  It only audits the process it
is set in.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable

from .._audit import AuditMismatchError
from ._missing import is_missing

__all__ = [
    "kernel_audit",
    "set_kernel_audit",
    "audit_enabled",
    "audit",
    "na_key",
    "row_key",
    "fresh_name",
]

#: Missing-cell stand-in for dedup keys.  ``object()`` identity can never
#: equal a real cell value, unlike the old ``"__na__"`` string sentinel.
NA_KEY = object()

#: Marker tuple head for the repr-key fallback on unhashable cells.
_UNHASHABLE = object()


def na_key(value: Any) -> Any:
    """The dedup-key form of one cell: NA sentinel, value, or repr-key."""
    if is_missing(value):
        return NA_KEY
    try:
        hash(value)
    except TypeError:
        return (_UNHASHABLE, type(value).__name__, repr(value))
    return value


def row_key(cells) -> tuple:
    """A hashable dedup key for one row of cells.

    Optimistic: builds the plain tuple first and only re-keys through
    :func:`na_key`'s repr fallback when the tuple turns out unhashable,
    so the common all-hashable row pays a single pass.
    """
    key = tuple(NA_KEY if is_missing(v) else v for v in cells)
    try:
        hash(key)
    except TypeError:
        return tuple(na_key(v) for v in cells)
    return key


def fresh_name(name: str, used) -> str:
    """First ``name``/``name_1``/``name_2``… not present in *used*.

    The deterministic collision rule shared by ``get_dummies`` and
    ``concat(axis=1)``: insertion order decides who keeps the bare name.
    """
    if name not in used:
        return name
    suffix = 1
    while f"{name}_{suffix}" in used:
        suffix += 1
    return f"{name}_{suffix}"


# ------------------------------------------------------------------ audit mode
#: Process-wide audit switch; read directly by the kernels as
#: ``kernels._AUDIT`` so the disabled path costs one attribute load.
_AUDIT = False


def audit_enabled() -> bool:
    return _AUDIT


def set_kernel_audit(enabled: bool) -> None:
    """Turn the shadow-run audit on or off for this process."""
    global _AUDIT
    _AUDIT = bool(enabled)


@contextmanager
def kernel_audit(enabled: bool = True):
    """Scope the audit switch: ``with kernel_audit(cfg.audit): …``."""
    global _AUDIT
    prior = _AUDIT
    _AUDIT = bool(enabled)
    try:
        yield
    finally:
        _AUDIT = prior


def audit(op: str, kernel_result, naive: Callable[[], Any]) -> None:
    """Shadow-run *naive* and require bit-identity with *kernel_result*.

    The audit flag is cleared while the reference runs — the references
    are built from primitive loops, but anything they call must not
    re-enter the audit (and must not recurse through it).
    """
    global _AUDIT
    _AUDIT = False
    try:
        expected = naive()
    finally:
        _AUDIT = True
    if not _results_match(kernel_result, expected):
        raise AuditMismatchError(
            "kernel",
            f"kernel {op!r} diverged from its naive reference: "
            f"kernel={_describe(kernel_result)} naive={_describe(expected)}"
        )


# ---------------------------------------------------------------- comparisons
def same_cell(a: Any, b: Any) -> bool:
    """Bit-identity for one cell: same missingness flavour, same type,
    same value.  ``1``/``True``/``1.0`` are all distinct here."""
    if is_missing(a) or is_missing(b):
        return is_missing(a) and is_missing(b) and ((a is None) == (b is None))
    if type(a) is not type(b):
        return False
    try:
        return bool(a == b)
    except Exception:  # noqa: BLE001 - incomparable values are "not equal"
        return False


def series_match(a, b) -> bool:
    """Bit-identity for two Series: name, labels, and every cell."""
    if len(a) != len(b) or a.name != b.name:
        return False
    if a.index.tolist() != b.index.tolist():
        return False
    return all(same_cell(x, y) for x, y in zip(a, b))


def frames_match(a, b) -> bool:
    """Bit-identity for two DataFrames: column order, labels, every cell."""
    if a.columns != b.columns:
        return False
    if a.index.tolist() != b.index.tolist():
        return False
    return all(
        same_cell(x, y)
        for c in a.columns
        for x, y in zip(a[c], b[c])
    )


def _results_match(a, b) -> bool:
    # late import: frame/series import this module at load time
    from .frame import DataFrame
    from .series import Series

    if isinstance(a, DataFrame) and isinstance(b, DataFrame):
        return frames_match(a, b)
    if isinstance(a, Series) and isinstance(b, Series):
        return series_match(a, b)
    return type(a) is type(b) and a == b


def _describe(obj) -> str:
    from .frame import DataFrame
    from .series import Series

    if isinstance(obj, DataFrame):
        return f"DataFrame(columns={obj.columns!r}, rows={len(obj)})"
    if isinstance(obj, Series):
        return f"Series(name={obj.name!r}, values={obj.tolist()!r})"
    return repr(obj)
