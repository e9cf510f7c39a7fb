"""Script execution sandbox.

Runs API-call scripts exactly as a notebook would, against the surface
their :class:`~repro.dialects.ApiDialect` declares: the dialect supplies
the module table (for the default pandas dialect, ``import pandas as
pd`` resolves to :mod:`repro.minipandas` — pandas is unavailable
offline), the loader that resolves data paths against a per-run data
directory with optional row sampling (Section 5.2 (5), used to keep
constraint checks fast on large D_IN), and the output-capture
convention.

The sandbox is the oracle behind LucidScript's *execution constraint*: a
candidate script is valid iff :func:`run_script` reports success.
:class:`repro.sandbox.incremental.IncrementalExecutor` is the faster path
on top of it: it resumes candidates from snapshots of shared statement
prefixes.
"""

from __future__ import annotations

import builtins
import os
import sys
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from .._astparse import not_utf8
from .._audit import AuditMismatchError
from ..dialects import resolve_dialect
from ..minipandas import DataFrame
from ..minipandas.kernels import audit_enabled

__all__ = [
    "ExecutionResult",
    "SandboxError",
    "SandboxImportError",
    "ExecTimeout",
    "run_script",
    "check_executes",
]


class SandboxError(Exception):
    """The sandbox itself was misused (not a script failure)."""


class SandboxImportError(ImportError):
    """A script imported a module outside its dialect's declared surface.

    Classified (never a raw ``KeyError`` leaking out of the module
    table) and self-describing: carries the offending module name and
    the dialect whose surface rejected it.
    """

    def __init__(self, module: str, dialect_name: str, allowed):
        self.module = module
        self.dialect = dialect_name
        surface = ", ".join(sorted(allowed))
        super().__init__(
            f"module {module!r} is not available inside the script sandbox: "
            f"the {dialect_name!r} dialect's surface allows only [{surface}]"
        )


class ExecTimeout(BaseException):
    """A sandboxed script exceeded its wall-clock execution budget.

    Derives from :class:`BaseException` so a script-level ``except
    Exception`` handler cannot swallow the interrupt; the sandbox itself
    converts it into a failed :class:`ExecutionResult` like any other
    script error, which is exactly how ``CheckIfExecutes`` wants a
    pathological candidate (an unbounded loop, a quadratic ``apply``) to
    surface: as a skippable failure, never as a hung search.
    """


class _Watchdog:
    """Thread-based wall-clock budget for in-process script execution.

    A daemon timer thread sets a flag at the deadline; a trace hook
    installed on the executing thread checks the flag on every ``line``
    event and raises :class:`ExecTimeout` inside the script frame, which
    interrupts pure-Python hangs such as ``while True: pass``.  The hook
    only exists while a budget is armed, so the budget-less default path
    executes exactly as before (bit-identical, zero overhead).

    Disarm protocol — the caller must restore the prior trace function
    with ``sys.settrace(watchdog.prior)`` *inline in its own frame* (a C
    call, invisible to the tracer) before calling any Python function;
    otherwise a late-firing flag could raise inside cleanup code::

        watchdog = _Watchdog.arm(timeout_s)
        try:
            exec(code, namespace)
        except BaseException:
            if watchdog is not None:
                sys.settrace(watchdog.prior)   # before any Python call
            ...
        finally:
            if watchdog is not None:
                sys.settrace(watchdog.prior)
                watchdog.cancel()

    Known limitations: the tracer fires at Python line boundaries, so a
    single long-running C call cannot be interrupted in-process, and a
    script that catches ``BaseException`` inside an outer loop survives
    the one-shot raise (CPython unsets a trace function that raises).
    Nothing in the process stops either case: such a candidate runs
    until it returns on its own.
    """

    __slots__ = ("timeout_s", "prior", "_flag", "_timer")

    def __init__(self, timeout_s, prior, flag, timer):
        self.timeout_s = timeout_s
        self.prior = prior
        self._flag = flag
        self._timer = timer

    @classmethod
    def arm(cls, timeout_s: Optional[float]) -> Optional["_Watchdog"]:
        if not timeout_s or timeout_s <= 0:
            return None
        flag = threading.Event()
        # a longer wait raises OverflowError in the timer thread, leaving
        # the budget unenforced; the message still names the budget asked for
        timer = threading.Timer(min(timeout_s, threading.TIMEOUT_MAX), flag.set)
        timer.daemon = True

        def _interrupt(frame, event, arg):
            if event == "line" and flag.is_set():
                raise ExecTimeout(
                    f"script exceeded its {timeout_s:g}s execution budget"
                )
            return _interrupt

        watchdog = cls(timeout_s, sys.gettrace(), flag, timer)
        timer.start()
        sys.settrace(_interrupt)
        return watchdog

    @property
    def expired(self) -> bool:
        return self._flag.is_set()

    def cancel(self) -> None:
        self._timer.cancel()


@dataclass
class ExecutionResult:
    """Outcome of one sandboxed script run."""

    ok: bool
    output: Optional[DataFrame] = None
    error: Optional[BaseException] = None
    error_line: Optional[int] = None
    namespace: Dict[str, Any] = field(default_factory=dict)

    @property
    def error_type(self) -> Optional[str]:
        return type(self.error).__name__ if self.error is not None else None

    @property
    def timed_out(self) -> bool:
        """Did the script blow its wall-clock budget (vs. a real error)?"""
        return isinstance(self.error, ExecTimeout)


def _make_guarded_open(data_dir: Optional[str]):
    """A read-only ``open`` restricted to the run's data directory.

    Candidate scripts come out of a search over corpus-derived code; they
    should never be able to write files or read outside their dataset.
    Paths are fully resolved (symlinks and ``..`` collapsed) before the
    prefix check so escapes like ``dir/../../etc/passwd`` cannot slip by.
    """
    real_open = open

    def guarded_open(file, mode="r", *args, **kwargs):
        if any(flag in mode for flag in ("w", "a", "x", "+")):
            raise PermissionError("the script sandbox is read-only")
        path = os.path.realpath(os.path.abspath(os.fspath(file)))
        if data_dir is not None:
            root = os.path.realpath(os.path.abspath(data_dir))
            if not path.startswith(root + os.sep) and path != root:
                raise PermissionError(
                    f"the script sandbox can only read from {root!r}"
                )
        return real_open(path, mode, *args, **kwargs)

    return guarded_open


def build_sandbox_namespace(
    data_dir: Optional[str] = None,
    sample_rows: Optional[int] = None,
    extra_globals: Optional[Dict[str, Any]] = None,
    dialect=None,
) -> Dict[str, Any]:
    """A fresh script namespace with guarded builtins wired in.

    Shared by :func:`run_script` and the incremental executor so both
    execute candidates under identical import/open/loader policies.  The
    module table comes from *dialect* (name or instance; default pandas).
    """
    resolved = resolve_dialect(dialect)
    module_table = resolved.module_table(data_dir, sample_rows)

    def guarded_import(name, globals=None, locals=None, fromlist=(), level=0):
        root = name.split(".")[0]
        try:
            return module_table[root]
        except KeyError:
            raise SandboxImportError(name, resolved.name, module_table) from None

    sandbox_builtins = dict(vars(builtins))
    sandbox_builtins["__import__"] = guarded_import
    sandbox_builtins["open"] = _make_guarded_open(data_dir)
    namespace: Dict[str, Any] = {
        "__builtins__": sandbox_builtins,
        "__name__": "__sandbox__",
    }
    if extra_globals:
        namespace.update(extra_globals)
    return namespace


def kernel_audit_fault(exc: BaseException) -> bool:
    """Whether *exc* is the kernel audit's mismatch, the engine's fault
    rather than the script's, so the run must raise it, not record it.

    Only while the audit is on: with it off, every exception a script
    raises is its own failure, even this class, which a script can reach
    through ``__subclasses__``.
    """
    return audit_enabled() and isinstance(exc, AuditMismatchError)


def script_error_line(exc: BaseException) -> Optional[int]:
    """Deepest ``<script>`` frame in the exception's traceback."""
    tb = exc.__traceback__
    line = None
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == "<script>":
            line = tb.tb_lineno
        tb = tb.tb_next
    return line


def run_script(
    source: str,
    data_dir: Optional[str] = None,
    sample_rows: Optional[int] = None,
    extra_globals: Optional[Dict[str, Any]] = None,
    timeout_s: Optional[float] = None,
    dialect=None,
) -> ExecutionResult:
    """Execute *source* in the sandbox and capture its output table.

    Parameters
    ----------
    source:
        Script text (straight-line API-call code).
    data_dir:
        Directory containing the run's data files; loader paths are
        resolved against it by basename.
    sample_rows:
        When set, every loaded table is down-sampled to at most this many
        rows (deterministically) — the paper's sampling optimization.
    extra_globals:
        Additional names injected into the script namespace.
    timeout_s:
        Wall-clock budget for the whole script; on expiry the run fails
        with :class:`ExecTimeout` (``result.timed_out``).  None (the
        default) executes unwatched, exactly as before.
    dialect:
        The API surface to execute against — a registered name or an
        :class:`~repro.dialects.ApiDialect`; None means pandas.
    """
    resolved_dialect = resolve_dialect(dialect)
    namespace = build_sandbox_namespace(
        data_dir, sample_rows, extra_globals, dialect=resolved_dialect
    )

    try:
        code = compile(source, "<script>", "exec")
    except UnicodeEncodeError as exc:
        error = not_utf8(source, exc)
        return ExecutionResult(ok=False, error=error, error_line=error.lineno)
    except SyntaxError as exc:
        return ExecutionResult(ok=False, error=exc, error_line=exc.lineno)

    watchdog = _Watchdog.arm(timeout_s)
    try:
        exec(code, namespace)
    except BaseException as exc:  # noqa: BLE001 - any script failure is data
        if watchdog is not None:
            sys.settrace(watchdog.prior)  # see _Watchdog's disarm protocol
        if kernel_audit_fault(exc):
            raise
        return ExecutionResult(ok=False, error=exc, error_line=script_error_line(exc))
    finally:
        if watchdog is not None:
            sys.settrace(watchdog.prior)
            watchdog.cancel()

    namespace.pop("__builtins__", None)
    return ExecutionResult(
        ok=True,
        output=resolved_dialect.select_output(namespace, source),
        namespace=namespace,
    )


def check_executes(
    source: str,
    data_dir: Optional[str] = None,
    sample_rows: Optional[int] = 200,
    timeout_s: Optional[float] = None,
    dialect=None,
) -> bool:
    """The paper's CheckIfExecutes(): does the script run without error?

    Uses aggressive row sampling by default — execution validity rarely
    depends on data volume, and this check runs inside the beam-search
    inner loop.  A timed-out script simply fails the check.
    """
    result = run_script(
        source,
        data_dir=data_dir,
        sample_rows=sample_rows,
        timeout_s=timeout_s,
        dialect=dialect,
    )
    return result.ok and result.output is not None
