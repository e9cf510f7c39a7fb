"""repro.harness — experiment drivers and reporting for Section 6."""

from .experiments import (
    ImprovementStats,
    MethodRun,
    evaluate_baseline,
    evaluate_lucidscript,
    make_intent,
)
from .reporting import render_histogram, render_series, render_table
from .user_study import RaterPanel, StudyOutcome, run_user_study, significance_against

__all__ = [
    "ImprovementStats",
    "MethodRun",
    "RaterPanel",
    "StudyOutcome",
    "evaluate_baseline",
    "evaluate_lucidscript",
    "make_intent",
    "render_histogram",
    "render_series",
    "render_table",
    "run_user_study",
    "significance_against",
]
