"""repro.sandbox — executes API-call scripts against their dialect's shim.

The execution-constraint oracle: candidate scripts are compiled and run
against the module table their :class:`~repro.dialects.ApiDialect`
declares (for the default pandas dialect, ``pandas`` maps to
:mod:`repro.minipandas`) with loader paths resolved against a per-run
data directory.  Two entry points, fastest-first for the beam search
hot path:

* :class:`IncrementalExecutor` — statement-level execution with prefix
  snapshots, so candidates sharing a prefix only pay for their suffix;
* :func:`run_script` / :func:`check_executes` — the cold, single-script
  oracle the incremental path reduces to.

Every entry point takes an optional wall-clock budget (``timeout_s`` /
``exec_timeout_s``): a script that exceeds it fails with
:class:`ExecTimeout` instead of hanging the search (see
:mod:`repro.sandbox.faults` for the failure taxonomy the budgets are
tested against).  Budgets are off by default — the unbudgeted path is
bit-identical to earlier builds.
"""

from .incremental import IncrementalExecutor, IncrementalStats
from .runner import (
    ExecTimeout,
    ExecutionResult,
    SandboxError,
    SandboxImportError,
    check_executes,
    run_script,
)

__all__ = [
    "ExecTimeout",
    "ExecutionResult",
    "SandboxError",
    "SandboxImportError",
    "check_executes",
    "run_script",
    "IncrementalExecutor",
    "IncrementalStats",
]
