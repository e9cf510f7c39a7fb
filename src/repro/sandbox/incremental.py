"""Incremental, prefix-resumable sandbox execution.

The beam search checks hundreds of candidate scripts per standardization
run, and by construction the candidates share long statement prefixes: the
search's frontier is monotone, so edits move left-to-right and every
extension wave differs from its parent in a suffix only.  The classic
sandbox re-executes each candidate from line 1; this module executes
statement-by-statement, snapshotting the namespace after each statement,
so a new candidate resumes from the longest cached prefix and only pays
for its suffix.

Correctness model
-----------------
Snapshots are only sound when re-running the prefix cold would reproduce
the snapshot.  Three guards keep that true:

* scripts whose text uses randomness (``import random``, ``np.random``)
  bypass the executor entirely and run cold, as do runs with
  ``extra_globals`` (injected objects cannot be keyed or safely copied)
  and scripts naming ``global`` or ``__future__`` (only a whole-script
  compile sees a name assigned before its ``global`` declaration or a
  future import after the first statement);
* namespace values are copied structurally with aliasing preserved
  (one memo per freeze/thaw, shared with :func:`copy.deepcopy` for
  uncommon types); frames and Series are captured with their
  copy-on-write ``copy()``, so snapshots and the live namespace share
  column payloads until a script writes a cell (tallied in
  ``IncrementalStats.payload_cells_shared``); values that cannot be
  safely copied — functions defined by the script, whose ``__globals__``
  binds the live namespace, and classes defined by the script (and their
  instances), which a later statement may mutate in place — mark the
  prefix unsnapshottable, and execution simply continues without caching
  deeper prefixes;
* every snapshot stores a structural fingerprint of the namespace
  (variable names, types, frame shapes).  A thaw that fails to reproduce
  its fingerprint — the "snapshot-restore mismatch" escape hatch — drops
  the snapshot and falls back to a full :func:`repro.sandbox.run_script`;
* the snapshot store is pinned to the on-disk state of ``data_dir``
  (per-CSV mtime/size): if a table file changes between runs, every
  cached prefix is discarded before the next probe.

Each statement runs from a code object compiled from its own text, padded
with line breaks down to its line in the script, so tracebacks report the
script's line numbers.  Code objects live in one process-wide cache keyed
by ``(statement text, first line)``: every executor in the process reuses
them.  A run resumes first and then compiles only the suffix it executes:
a snapshotted prefix compiled in the run that made the snapshot.  The
whole suffix compiles before any of it runs, as a cold run compiles the
whole script first; a compile-time error (``break`` outside a loop, ...)
hands the script to a cold run, which reports it exactly.

An optional ``verify=True`` mode (``LSConfig.audit``) re-runs every
incremental run cold and raises
:class:`~repro._audit.AuditMismatchError` (layer ``sandbox``) when the
two runs end differently.
"""

from __future__ import annotations

import copy
import os
import re as _re
import sys
import time
import types
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._astparse import ast_parse, not_utf8
from .._audit import AuditMismatchError
from .._lru import LRUCache
from ..dialects import resolve_dialect
from ..dialects.base import ModuleProxy
from ..lang.lemmatize import statement_sources
from ..minipandas import DataFrame
from ..minipandas.kernels import frames_match
from ..minipandas.series import Series
from .runner import (
    ExecTimeout,
    ExecutionResult,
    _Watchdog,
    build_sandbox_namespace,
    kernel_audit_fault,
    run_script,
    script_error_line,
)

__all__ = ["IncrementalExecutor", "IncrementalStats"]

#: Scripts that must run cold: genuine randomness use (``import random``,
#: ``random.random()``, ``np.random.seed``; the deterministic
#: ``random_state=`` kwarg does not match, because ``_`` is a word
#: character and blocks the ``\b`` boundary), and ``global`` or
#: ``__future__`` statements, whose compile-time checks span statements.
_COLD_PATTERN = _re.compile(r"\b(?:random|global|__future__)\b")

#: The ``__name__`` of every sandbox namespace, so also the ``__module__``
#: of every class a script defines.
_SANDBOX_NAME = "__sandbox__"

#: LRU capacity of each executor's prefix-snapshot store.
SNAPSHOT_LIMIT = 64

#: Capacity of the process-wide code-object cache below.  A search runs
#: a few hundred distinct statements, and every search over one corpus
#: runs mostly the same ones at the same lines.
CODE_CACHE_LIMIT = 2048

#: ``(statement text, first line) -> code object``, shared by every
#: executor in the process (the server runs executors on several threads).
_CODE_CACHE = LRUCache(CODE_CACHE_LIMIT, thread_safe=True)

def _line_numbers(segments: Sequence[str]) -> List[int]:
    """First line of each segment in ``"\\n".join(segments)``, counting
    breaks as the parser does: ``\\r\\n``, a lone ``\\r`` or ``\\n``."""
    numbers = []
    line = 1
    for segment in segments:
        numbers.append(line)
        line += segment.count("\n") + segment.count("\r") - segment.count("\r\n")
        if not segment.endswith("\r"):
            line += 1  # the joining "\n"; after "\r" it completes one "\r\n"
    return numbers


def _compiled(segment: str, lineno: int) -> types.CodeType:
    """Code object of one statement, compiled from its text padded down to
    line *lineno*, so tracebacks carry the script's line numbers."""
    key = (segment, lineno)
    code = _CODE_CACHE.get(key)
    if code is None:
        padded = "\n" * (lineno - 1) + segment
        try:
            # inherits this module's future flags, as run_script's compile does
            code = compile(padded, "<script>", "exec")
        except UnicodeEncodeError as exc:
            raise not_utf8(padded, exc) from exc
        _CODE_CACHE[key] = code
    return code


#: Types safe to share between snapshots without copying.
_IMMUTABLE_TYPES = (
    type(None), bool, int, float, complex, str, bytes, frozenset, range,
    np.generic, np.dtype,
)


class _Unsnapshottable(Exception):
    """A namespace value cannot be safely copied into a snapshot."""


def _snapshot_value(
    value: Any, memo: Dict[int, Any], stats: Optional["IncrementalStats"] = None
) -> Any:
    """Structural copy of one namespace value, preserving aliasing.

    *memo* maps ``id(original) -> copy`` (the same scheme
    :func:`copy.deepcopy` uses, and is shared with it), so two names bound
    to one frame stay bound to one copy after restore.

    Frames and Series are copied with their own copy-on-write ``copy()``:
    the snapshot and the live namespace reference the *same* column
    payload lists (O(columns) per frame, no cell duplication) and a later
    in-place write on either side materializes a private list first.
    ``stats`` tallies how many cells each snapshot shared that a deep
    copy would have duplicated.
    """
    if isinstance(value, _IMMUTABLE_TYPES):
        return value
    prior = memo.get(id(value))
    if prior is not None:
        return prior
    if isinstance(value, (types.ModuleType, ModuleProxy, type)):
        if isinstance(value, type) and value.__module__ == _SANDBOX_NAME:
            # a class the script defined: a later statement may mutate it
            # (``A.x = 2``), and a shared one would carry that into snapshots
            raise _Unsnapshottable(value.__name__)
        return value  # shared sandbox substrate, never script-mutable state
    if isinstance(value, DataFrame):
        clone = value.copy()
        if stats is not None:
            stats.frames_snapshotted += 1
            stats.payload_cells_shared += len(value) * len(value.columns)
    elif isinstance(value, Series):
        clone = value.copy()
        if stats is not None:
            stats.payload_cells_shared += len(value)
    elif isinstance(value, np.ndarray):
        clone = value.copy()
    elif isinstance(value, list):
        clone = []
        memo[id(value)] = clone
        clone.extend(_snapshot_value(v, memo, stats) for v in value)
        return clone
    elif isinstance(value, dict):
        clone = {}
        memo[id(value)] = clone
        for k, v in value.items():
            clone[k] = _snapshot_value(v, memo, stats)
        return clone
    elif isinstance(value, set):
        clone = {_snapshot_value(v, memo, stats) for v in value}
    elif isinstance(value, tuple):
        return tuple(_snapshot_value(v, memo, stats) for v in value)
    elif callable(value):
        # a function def'd by the script closes over the live namespace;
        # sharing or copying it would either leak or sever that binding
        raise _Unsnapshottable(type(value).__name__)
    elif type(value).__module__ == _SANDBOX_NAME:
        # an instance of a script-defined class: deepcopy would share the
        # class itself by reference
        raise _Unsnapshottable(type(value).__name__)
    else:
        try:
            clone = copy.deepcopy(value, memo)
        except Exception as exc:  # noqa: BLE001 - any failure means "don't cache"
            raise _Unsnapshottable(f"{type(value).__name__}: {exc}") from exc
    memo[id(value)] = clone
    return clone


def _fingerprint(namespace: Dict[str, Any]) -> Tuple:
    """Cheap structural signature used to detect restore mismatches."""
    signature = []
    for name in sorted(namespace):
        if name in ("__builtins__", "__name__"):
            continue
        value = namespace[name]
        if isinstance(value, DataFrame):
            signature.append((name, "frame", tuple(value.columns), len(value)))
        elif isinstance(value, Series):
            signature.append((name, "series", value.name, len(value)))
        else:
            signature.append((name, type(value).__name__))
    return tuple(signature)


@dataclass
class IncrementalStats:
    """Counters reported into ``SearchStats`` and the perf benchmark."""

    runs: int = 0
    cold_runs: int = 0
    prefix_hits: int = 0
    prefix_misses: int = 0
    resumed_statements: int = 0
    executed_statements: int = 0
    fallbacks: int = 0
    timeouts: int = 0
    #: DataFrames captured into (or thawed out of) snapshots via the
    #: copy-on-write structural copy.
    frames_snapshotted: int = 0
    #: Cells those copies shared by reference — each one a cell a deep
    #: copy would have duplicated into the snapshot store.
    payload_cells_shared: int = 0

    @property
    def hit_rate(self) -> float:
        probes = self.prefix_hits + self.prefix_misses
        return self.prefix_hits / probes if probes else 0.0

    @property
    def mean_resume_depth(self) -> float:
        return self.resumed_statements / self.prefix_hits if self.prefix_hits else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "runs": float(self.runs),
            "cold_runs": float(self.cold_runs),
            "prefix_hits": float(self.prefix_hits),
            "prefix_misses": float(self.prefix_misses),
            "hit_rate": self.hit_rate,
            "mean_resume_depth": self.mean_resume_depth,
            "resumed_statements": float(self.resumed_statements),
            "executed_statements": float(self.executed_statements),
            "fallbacks": float(self.fallbacks),
            "timeouts": float(self.timeouts),
            "frames_snapshotted": float(self.frames_snapshotted),
            "payload_cells_shared": float(self.payload_cells_shared),
        }


class IncrementalExecutor:
    """Prefix-resumable :func:`run_script` for one (data_dir, sample_rows).

    Parameters
    ----------
    data_dir, sample_rows:
        Fixed per executor — they define the semantics of ``read_csv``
        inside scripts, so snapshots are only valid within one setting.
        Callers needing another setting build another executor.
    verify:
        Re-run every incremental run cold and raise
        :class:`~repro._audit.AuditMismatchError` (layer ``sandbox``) when
        the runs end differently (:meth:`_audit`).  Defeats the speedup;
        ``LSConfig.audit`` turns it on.
    exec_timeout_s:
        Wall-clock budget for one whole script; on expiry the run fails
        with :class:`ExecTimeout` (counted in ``stats.timeouts``).  Each
        statement runs watched for what is left of it.  None (the
        default) executes unwatched.
    dialect:
        The API surface scripts execute against (name or
        :class:`~repro.dialects.ApiDialect`); fixed per executor like
        ``data_dir`` — snapshots from one surface are meaningless on
        another.  None means pandas.
    """

    def __init__(
        self,
        data_dir: Optional[str] = None,
        sample_rows: Optional[int] = None,
        verify: bool = False,
        exec_timeout_s: Optional[float] = None,
        dialect=None,
    ):
        self.data_dir = data_dir
        self.sample_rows = sample_rows
        self.verify = verify
        self.exec_timeout_s = exec_timeout_s
        self.dialect = resolve_dialect(dialect)
        self._snapshots = LRUCache(SNAPSHOT_LIMIT)
        self._base_builtins = build_sandbox_namespace(
            data_dir, sample_rows, dialect=self.dialect
        )["__builtins__"]
        self._data_state = self._data_dir_state()
        self.stats = IncrementalStats()

    # ------------------------------------------------------------------ public
    def run_script(
        self,
        source: str,
        extra_globals: Optional[Dict[str, Any]] = None,
        *,
        segments: Optional[Sequence[str]] = None,
    ) -> ExecutionResult:
        """Drop-in for :func:`repro.sandbox.run_script` on this setting.

        *segments*, when given, are the script's top-level statement texts
        and must join with ``"\\n"`` to *source* (``ValueError`` otherwise).
        The executor then neither parses nor splits the script: each
        statement's first line comes from the line breaks before it.
        Without them the script is parsed and split here, into the same
        segments for a script that is such a join.
        """
        if segments is not None:
            segments = tuple(segments)
            if "\n".join(segments) != source:
                raise ValueError("segments do not join to the script source")
        self.stats.runs += 1
        if extra_globals or _COLD_PATTERN.search(source):
            return self._cold(source, extra_globals)
        state = self._data_dir_state()
        if state != self._data_state:
            # a data file changed under us: every cached prefix is stale
            self._snapshots.clear()
            self._data_state = state
        if segments is None:
            try:
                tree = ast_parse(source)
            except SyntaxError as exc:
                return ExecutionResult(ok=False, error=exc, error_line=exc.lineno)
            spans = statement_sources(source, tree.body)
            segments = tuple(segment for segment, _ in spans)
            linenos = [lineno for _, lineno in spans]
        else:
            linenos = _line_numbers(segments)
        if not segments:
            return self._cold(source, extra_globals)

        namespace, resumed = self._resume(segments)
        if namespace is None and resumed < 0:
            # fingerprint mismatch on thaw: the escape hatch
            return self._cold(source, extra_globals, fallback=True)
        try:
            # the prefix compiled in the run that snapshotted it
            codes = [
                _compiled(s, n)
                for s, n in zip(segments[resumed:], linenos[resumed:])
            ]
        except SyntaxError:
            # a compile-time error ('break' outside a loop, ...): the cold
            # run compiles the whole script first and reports it exactly
            return self._cold(source, extra_globals)
        if namespace is None:
            namespace = self._fresh_namespace()
            self.stats.prefix_misses += 1
        else:
            self.stats.prefix_hits += 1
            self.stats.resumed_statements += resumed

        result = self._execute_suffix(
            source, segments, codes, linenos, namespace, resumed
        )
        if self.verify:
            self._audit(source, result)
        return result

    def check_executes(
        self, source: str, *, segments: Optional[Sequence[str]] = None
    ) -> bool:
        """CheckIfExecutes() over the incremental path."""
        result = self.run_script(source, segments=segments)
        return result.ok and result.output is not None

    def clear(self) -> None:
        self._snapshots.clear()

    def snapshot_count(self) -> int:
        return len(self._snapshots)

    # ---------------------------------------------------------------- internal
    def _cold(
        self,
        source: str,
        extra_globals: Optional[Dict[str, Any]] = None,
        fallback: bool = False,
    ) -> ExecutionResult:
        self.stats.cold_runs += 1
        if fallback:
            self.stats.fallbacks += 1
        result = run_script(
            source,
            data_dir=self.data_dir,
            sample_rows=self.sample_rows,
            extra_globals=extra_globals,
            timeout_s=self.exec_timeout_s,
            dialect=self.dialect,
        )
        if result.timed_out:
            self.stats.timeouts += 1
        return result

    def _data_dir_state(self) -> Tuple:
        """Identity of every table file a script could read: snapshots made
        against one state are invalid once any file changes on disk."""
        if not self.data_dir:
            return ()
        entries = []
        try:
            for root, _dirs, files in os.walk(self.data_dir):
                for name in files:
                    if not name.endswith(".csv"):
                        continue
                    stat = os.stat(os.path.join(root, name))
                    entries.append((root, name, stat.st_mtime_ns, stat.st_size))
        except OSError:
            return ()
        return tuple(sorted(entries))

    def _fresh_namespace(self) -> Dict[str, Any]:
        return {
            "__builtins__": dict(self._base_builtins),
            "__name__": _SANDBOX_NAME,
        }

    def _resume(self, prefix: Tuple[str, ...]):
        """Thaw the longest cached prefix; ``(None, 0)`` means cold start,
        ``(None, -1)`` means a snapshot failed its fingerprint check."""
        for depth in range(len(prefix), 0, -1):
            entry = self._snapshots.peek(prefix[:depth])
            if entry is None:
                continue
            self._snapshots.get(prefix[:depth])  # refresh LRU recency
            frozen, fingerprint = entry
            try:
                namespace = self._thaw(frozen)
            except Exception:  # noqa: BLE001 - corrupt snapshot: drop + cold
                self._drop(prefix[:depth])
                return None, -1
            if _fingerprint(namespace) != fingerprint:
                self._drop(prefix[:depth])
                return None, -1
            return namespace, depth
        return None, 0

    def _drop(self, key: Tuple[str, ...]) -> None:
        self._snapshots.pop(key, None)

    def _thaw(self, frozen: Dict[str, Any]) -> Dict[str, Any]:
        namespace = self._fresh_namespace()
        memo: Dict[int, Any] = {}
        for name, value in frozen.items():
            namespace[name] = _snapshot_value(value, memo, self.stats)
        return namespace

    def _freeze(self, namespace: Dict[str, Any]):
        frozen: Dict[str, Any] = {}
        memo: Dict[int, Any] = {}
        for name, value in namespace.items():
            if name in ("__builtins__", "__name__"):
                continue
            frozen[name] = _snapshot_value(value, memo, self.stats)
        return frozen, _fingerprint(namespace)

    def _execute_suffix(
        self,
        source: str,
        segments: Tuple[str, ...],
        codes: List[types.CodeType],
        linenos: List[int],
        namespace: Dict[str, Any],
        resumed: int,
    ) -> ExecutionResult:
        """Run the statements after the first *resumed*; *codes* holds
        theirs alone."""
        snapshottable = True
        deadline = (
            time.monotonic() + self.exec_timeout_s if self.exec_timeout_s else None
        )
        for position, code in enumerate(codes, resumed):
            # each statement runs watched for what is left of the budget
            budget = None
            if deadline is not None:
                budget = deadline - time.monotonic()
                if budget <= 0:
                    self.stats.timeouts += 1
                    exhausted = ExecTimeout(
                        f"script exceeded its {self.exec_timeout_s:g}s execution budget"
                    )
                    return ExecutionResult(
                        ok=False,
                        error=exhausted,
                        error_line=linenos[position],
                    )
            watchdog = _Watchdog.arm(budget)
            try:
                exec(code, namespace)
            except BaseException as exc:  # noqa: BLE001 - script failures are data
                if watchdog is not None:
                    sys.settrace(watchdog.prior)  # see _Watchdog's disarm protocol
                if kernel_audit_fault(exc):
                    raise
                if isinstance(exc, ExecTimeout):
                    self.stats.timeouts += 1
                return ExecutionResult(
                    ok=False, error=exc, error_line=script_error_line(exc)
                )
            finally:
                if watchdog is not None:
                    sys.settrace(watchdog.prior)
                    watchdog.cancel()
            self.stats.executed_statements += 1
            if snapshottable:
                try:
                    self._snapshots[segments[: position + 1]] = self._freeze(namespace)
                except _Unsnapshottable:
                    # keep executing; deeper prefixes just won't be cached
                    snapshottable = False
        namespace.pop("__builtins__", None)
        return ExecutionResult(
            ok=True,
            output=self.dialect.select_output(namespace, source),
            namespace=namespace,
        )

    def _audit(self, source: str, result: ExecutionResult) -> None:
        """Raise :class:`AuditMismatchError` (layer ``sandbox``) unless a
        cold run of *source* ends as *result* did: the same success, error
        type and error line, and a matching output table.  A run in which
        either side exceeded the execution budget is not compared."""
        if result.timed_out:
            return
        cold = run_script(
            source,
            data_dir=self.data_dir,
            sample_rows=self.sample_rows,
            timeout_s=self.exec_timeout_s,
            dialect=self.dialect,
        )
        if cold.timed_out:
            return

        def outcome(run: ExecutionResult) -> Tuple:
            return run.ok, run.error_type, run.error_line, run.output is None

        if outcome(cold) != outcome(result):
            detail = f"ended as {outcome(result)}, the cold run as {outcome(cold)}"
        # bit-identity, as the kernel audit defines it: a NaN cell equals
        # a NaN cell of the same missingness flavour, unlike under ==
        elif cold.output is not None and not frames_match(cold.output, result.output):
            detail = "emitted a table that differs from the cold run's"
        else:
            return
        raise AuditMismatchError(
            "sandbox", f"incremental run of {source!r} {detail}"
        )
