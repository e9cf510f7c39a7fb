"""Fault-tolerance tests for the sandbox execution-budget layer.

Uses :mod:`tests.faults` to plant deterministic pathologies
(hangs, watchdog-defeating hangs, crashes, allocation churn) and checks
that budgets interrupt them and that healthy scripts are never affected.
"""

import sys
import threading
import time

import pytest

from repro.sandbox import ExecTimeout, IncrementalExecutor, run_script
from repro.sandbox import incremental
from .faults import (
    FAULT_KINDS,
    FaultInjectingExecutor,
    fault_snippet,
    inject_fault,
    spin_snippet,
)

#: Tight budget for scripts that must time out; generous one for scripts
#: that must not.  The hang tests assert wall-clock stays well under the
#: generous bound, so a broken watchdog fails fast instead of wedging CI.
BUDGET_S = 0.2
GENEROUS_S = 30.0

GOOD = "import pandas as pd\ndf = pd.DataFrame({'a': [1, 2]})"
HANG = fault_snippet("hang") + "\ndf = 1"


class TestWatchdog:
    def test_hang_is_interrupted_within_budget(self):
        start = time.monotonic()
        result = run_script(HANG, timeout_s=BUDGET_S)
        elapsed = time.monotonic() - start
        assert not result.ok
        assert result.timed_out
        assert result.error_type == "ExecTimeout"
        assert elapsed < GENEROUS_S / 2

    def test_except_exception_cannot_swallow_the_interrupt(self):
        script = (
            "try:\n"
            "    while True:\n"
            "        pass\n"
            "except Exception:\n"
            "    pass\n"
            "df = 1"
        )
        result = run_script(script, timeout_s=BUDGET_S)
        assert result.timed_out

    def test_finite_spin_passes_under_generous_budget(self):
        source = spin_snippet(50_000) + "\n" + GOOD
        result = run_script(source, timeout_s=GENEROUS_S)
        assert result.ok
        assert result.output is not None

    def test_good_script_unchanged_by_budget(self):
        plain = run_script(GOOD)
        budgeted = run_script(GOOD, timeout_s=GENEROUS_S)
        assert plain.ok and budgeted.ok
        assert plain.output["a"].tolist() == budgeted.output["a"].tolist()

    def test_no_budget_installs_no_trace(self):
        prior = sys.gettrace()
        result = run_script(GOOD)
        assert result.ok
        assert sys.gettrace() is prior

    def test_trace_restored_after_timeout(self):
        prior = sys.gettrace()
        run_script(HANG, timeout_s=BUDGET_S)
        assert sys.gettrace() is prior

    def test_crash_fault_is_not_misclassified_as_timeout(self):
        result = run_script(fault_snippet("crash"), timeout_s=GENEROUS_S)
        assert not result.ok
        assert not result.timed_out
        assert result.error_type == "RuntimeError"

    def test_oom_fault_is_interrupted(self):
        result = run_script(fault_snippet("oom"), timeout_s=BUDGET_S)
        assert result.timed_out

    def test_timeout_reports_a_script_line(self):
        result = run_script(HANG, timeout_s=BUDGET_S)
        assert result.error_line is not None
        assert result.error_line >= 1


def thread_errors(monkeypatch, action):
    """``action()`` and the exception types ``threading.excepthook`` saw
    in any thread it started; those threads are joined first."""
    seen = []
    monkeypatch.setattr(threading, "excepthook", lambda args: seen.append(args.exc_type))
    before = set(threading.enumerate())
    result = action()
    for thread in set(threading.enumerate()) - before:
        thread.join(GENEROUS_S)
    return result, seen


class TestBudgetsAboveTheTimerLimit:
    """``threading.Timer`` cannot wait longer than ``threading.TIMEOUT_MAX``;
    a longer budget arms the longest wait it can."""

    HUGE = 1e308

    def test_run_script_completes_quietly(self, monkeypatch):
        result, errors = thread_errors(
            monkeypatch, lambda: run_script(GOOD, timeout_s=self.HUGE)
        )
        assert result.ok and result.output is not None
        assert errors == []

    def test_incremental_executor_completes_quietly(self, monkeypatch):
        executor = IncrementalExecutor(exec_timeout_s=self.HUGE)
        result, errors = thread_errors(monkeypatch, lambda: executor.run_script(GOOD))
        assert result.ok and result.output is not None
        assert executor.stats.timeouts == 0
        assert errors == []

    def test_the_clamped_budget_is_enforced_and_named_as_requested(self, monkeypatch):
        monkeypatch.setattr(threading, "TIMEOUT_MAX", BUDGET_S)
        # a finite spin (seconds under the watchdog's trace hook), so an
        # unenforced budget fails here instead of hanging
        spin = spin_snippet(20_000_000) + "\ndf = 1"
        result = run_script(spin, timeout_s=self.HUGE)
        assert result.timed_out
        assert str(result.error) == "script exceeded its 1e+308s execution budget"


class TestInjectFault:
    def test_prepends_at_position_zero(self):
        out = inject_fault(GOOD, "crash", position=0)
        assert out.splitlines()[0] == fault_snippet("crash")
        assert out.endswith(GOOD.splitlines()[-1])

    def test_huge_position_appends(self):
        out = inject_fault(GOOD, "crash", position=10**9)
        assert out.startswith(GOOD)
        assert out.splitlines()[-1] == fault_snippet("crash")

    def test_injected_script_still_parses(self):
        import ast

        for kind in FAULT_KINDS:
            for position in (0, 1, 10**9):
                ast.parse(inject_fault(GOOD, kind, position=position))

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            fault_snippet("segfault")
        with pytest.raises(ValueError):
            inject_fault(GOOD, "segfault")

    def test_empty_source_becomes_the_fault(self):
        assert inject_fault("", "crash") == fault_snippet("crash")


class TestIncrementalBudgets:
    def test_script_budget_interrupts_and_counts(self):
        executor = IncrementalExecutor(exec_timeout_s=BUDGET_S)
        result = executor.run_script(HANG)
        assert result.timed_out
        assert executor.stats.timeouts == 1

    def test_statement_budget_interrupts_the_hanging_statement(self):
        # each statement runs watched for what is left of the script budget
        source = GOOD + "\n" + fault_snippet("hang")
        executor = IncrementalExecutor(exec_timeout_s=BUDGET_S)
        result = executor.run_script(source)
        assert result.timed_out
        # the interrupt lands inside the hang loop, after the good prefix
        assert result.error_line >= len(GOOD.splitlines()) + 1

    def test_prefix_snapshot_survives_a_timed_out_suffix(self):
        faulted = GOOD + "\n" + fault_snippet("hang")
        executor = IncrementalExecutor(exec_timeout_s=BUDGET_S)
        assert executor.run_script(faulted).timed_out
        # the shared prefix still executes (and may resume from snapshot)
        result = executor.run_script(GOOD + "\ndf2 = df")
        assert result.ok

    def test_the_sandbox_audit_does_not_compare_a_timed_out_run(self, monkeypatch):
        colds = []
        real = incremental.run_script
        monkeypatch.setattr(
            incremental, "run_script", lambda *a, **k: colds.append(a) or real(*a, **k)
        )
        executor = IncrementalExecutor(exec_timeout_s=BUDGET_S, verify=True)
        assert executor.run_script(HANG).timed_out
        assert colds == []
        assert executor.run_script(GOOD).ok
        assert len(colds) == 1

    def test_script_budget_is_the_only_budget(self):
        with pytest.raises(TypeError, match="statement_timeout_s"):
            IncrementalExecutor(statement_timeout_s=BUDGET_S)

    def test_no_budget_means_no_timeout_accounting(self):
        executor = IncrementalExecutor()
        assert executor.exec_timeout_s is None
        result = executor.run_script(GOOD)
        assert result.ok
        assert executor.stats.timeouts == 0


class TestFaultInjectingExecutor:
    def test_injects_only_matching_scripts(self):
        executor = FaultInjectingExecutor(
            match="df.dropna", kind="crash", exec_timeout_s=GENEROUS_S
        )
        clean = executor.run_script(GOOD)
        assert clean.ok
        assert executor.injected_sources == []
        target = GOOD + "\ndf = df.dropna()"
        faulted = executor.run_script(target)
        assert not faulted.ok
        assert faulted.error_type == "RuntimeError"
        assert executor.injected_sources == [target]

    def test_predicate_match(self):
        executor = FaultInjectingExecutor(
            match=lambda src: src.count("\n") >= 2, kind="crash"
        )
        assert executor.run_script(GOOD).ok
        assert not executor.run_script(GOOD + "\ndf = df").ok

    def test_injected_hang_is_budgeted(self):
        executor = FaultInjectingExecutor(
            match="dropna", kind="hang", position=10**9, exec_timeout_s=BUDGET_S
        )
        result = executor.run_script(GOOD + "\ndf = df.dropna()")
        assert result.timed_out
        assert executor.stats.timeouts >= 1

    def test_segments_forwarded_unless_a_fault_is_injected(self):
        executor = FaultInjectingExecutor(match="df.dropna", kind="crash")
        target = GOOD + "\ndf = df.dropna()"
        faulted = executor.run_script(target, segments=tuple(target.split("\n")))
        assert faulted.error_type == "RuntimeError"
        segments = tuple(GOOD.split("\n"))
        assert executor.run_script(GOOD, segments=segments).ok
        with pytest.raises(ValueError):
            executor.run_script(GOOD, segments=segments[:-1])

    def test_invalid_kind_rejected_eagerly(self):
        with pytest.raises(ValueError):
            FaultInjectingExecutor(match="x", kind="segfault")
