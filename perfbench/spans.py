"""Span tracing from outside the program: timing wrappers on public entry points.

The traced run patches the layers' public functions and methods with
wrappers that record one span per call — name, parent span, start, end —
in memory.  A layer's self time is its spans' duration minus the part
covered by their child spans.  Nothing under ``src/`` knows about this:
wrappers are installed by assignment on the defining class, or on every
``repro`` module that imported the function by name, and removed the same
way, so untraced work runs the unmodified code.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Span name -> (module, attribute path) of each wrapped entry point.
#: A dotted attribute names a method on a class; a bare one a function.
TARGETS: Dict[str, Tuple[str, str]] = {
    "lang.lemmatize": ("repro.lang.lemmatize", "lemmatize"),
    "lang.parse": ("repro.lang.parser", "parse_script"),
    "corpus.curate": ("repro.core.standardizer", "LucidScript.__init__"),
    "corpus.to_vocabulary": ("repro.corpus.index", "CorpusIndex.to_vocabulary"),
    "corpus.top_k": ("repro.corpus.retrieval", "RetrievalIndex.top_k"),
    "corpus.assemble": ("repro.corpus.retrieval", "RetrievalIndex.assemble"),
    "corpus.add_script": ("repro.corpus.retrieval", "RetrievalIndex.add_script"),
    "corpus.remove_script": ("repro.corpus.retrieval", "RetrievalIndex.remove_script"),
    "core.get_steps": ("repro.core.beam", "BeamSearch.get_steps"),
    "core.top_k": ("repro.core.beam", "BeamSearch.get_top_k_beams"),
    "core.check_executes": ("repro.core.beam", "BeamSearch.check_if_executes"),
    "sandbox.exec": ("repro.sandbox.incremental", "IncrementalExecutor.run_script"),
    "sandbox.run_script": ("repro.sandbox.runner", "run_script"),
    "core.intent": ("repro.core.intent", "PreparedIntent.check"),
    "ml.evaluate": ("repro.ml.pipeline", "evaluate_downstream"),
    "minipandas.read_csv": ("repro.minipandas.io", "read_csv"),
}

#: Spans whose boolean return value is tallied (checks passed / attempted).
OUTCOME_SPANS = frozenset({"core.check_executes"})


class Tracer:
    """In-memory span recorder with installable wrappers.

    Spans are ``(span_id, parent_id, name, start, end)``; ``parent_id`` 0
    means no enclosing span on that thread.  :meth:`span` opens a root
    span (one benchmark op) around a block.
    """

    def __init__(self):
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.outcomes: Dict[str, List[bool]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        tally = name in OUTCOME_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, parent, name, started, ended))
            if tally:
                tracer.outcomes[name].append(bool(result))
            return result

        return traced

    def span(self, name: str) -> "_RootSpan":
        """A span opened by the benchmark itself around one op."""
        return _RootSpan(self, name)

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        """Wrap every target (a no-op while already installed)."""
        if self._patches:
            return
        for name, (module_name, attr) in TARGETS.items():
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".", 1)
                owner = getattr(module, cls_name)
                own = method in owner.__dict__
                original = owner.__dict__[method] if own else getattr(owner, method)
                self._set(owner, method, self._wrap(name, original), own)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            # rebind it in every repro module that imported it by name
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper, True)

    def _set(self, owner, key: str, wrapper, own: bool) -> None:
        self._patches.append((owner, key, vars(owner).get(key), own))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, key, previous, own in reversed(self._patches):
            if own:
                setattr(owner, key, previous)
            else:
                delattr(owner, key)
        self._patches.clear()

    # ------------------------------------------------------------ reporting
    def summary(self, root: str) -> Dict:
        """Per-name calls, total and self seconds, plus the child coverage
        of the *root* spans (the share of each op its child spans cover)."""
        child_s: Dict[int, float] = defaultdict(float)
        for _, parent, _, started, ended in self.spans:
            if parent:
                child_s[parent] += ended - started
        calls: Dict[str, int] = defaultdict(int)
        total_s: Dict[str, float] = defaultdict(float)
        self_s: Dict[str, float] = defaultdict(float)
        root_s = covered_s = 0.0
        roots = 0
        for span_id, _, name, started, ended in self.spans:
            duration = ended - started
            calls[name] += 1
            total_s[name] += duration
            self_s[name] += duration - child_s[span_id]
            if name == root:
                roots += 1
                root_s += duration
                covered_s += child_s[span_id]
        return {
            "roots": roots,
            "coverage_pct": 100.0 * covered_s / root_s if root_s else 0.0,
            "calls": dict(calls),
            "total_s": dict(total_s),
            "self_s": dict(self_s),
            "outcomes": {
                name: [sum(values), len(values)]
                for name, values in self.outcomes.items()
            },
        }


class _RootSpan:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_RootSpan":
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else 0
        self.span_id = next(self.tracer._ids)
        stack.append(self.span_id)
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        ended = time.perf_counter()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            (self.span_id, self.parent, self.name, self.started, ended)
        )
