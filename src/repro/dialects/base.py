"""The :class:`ApiDialect` protocol — everything API-specific in one place.

The pipeline (atoms → lemmatization → DAG → entropy search) is
API-agnostic; what makes the reproduction "pandas-shaped" is a handful
of conventions that used to be hardcoded across three layers:

* **call surface** — which root modules a script may import and which
  entry-point functions load the input artifact (``read_csv``), driving
  lemmatization's canonical renaming and the parser's protected
  statements;
* **sandbox shim** — the module table scripts execute against, the
  loader resolver that maps script paths onto the run's data directory,
  and the output-capture convention (which variable is "the" output);
* **intent contract** — the captured output is a table, so the intent
  measures fingerprint and compare the original's and a candidate's
  outputs the same way for every dialect.

An :class:`ApiDialect` owns the first two.  :class:`~repro.dialects
.pandas_dialect.PandasDialect` extracts the historical behavior verbatim
(bit-identical by construction — the ``verify_dialect`` audit replays a
pre-refactor recorded fixture to prove it), and any new dialect plugs in
by subclassing and registering (see :mod:`repro.dialects.tablereport`
for a complete worked second dialect).
"""

from __future__ import annotations

import ast
import os
from typing import Any, Callable, Dict, Optional

from .. import minipandas
from .._astparse import ast_parse
from .._lru import LRUCache
from ..minipandas import DataFrame

__all__ = [
    "ApiDialect",
    "ModuleProxy",
    "TableLoader",
    "UnknownDialectError",
    "load_table",
]


class UnknownDialectError(ValueError):
    """An unregistered dialect name was requested."""


#: Parsed-CSV cache shared by every dialect's loader: beam search
#: re-executes scripts against the same file dozens of times per search,
#: and parsing dominates for large D_IN.  True LRU (hits refresh
#: recency), keyed by (path, mtime, size, sample_rows): the full parse
#: is cached under sample_rows=None and each sampled view is cached
#: under its own row cap, so repeated sampled reads of a large table
#: don't re-draw the sample every call.
_CSV_CACHE = LRUCache(capacity=16)


def load_table(path: str, sample_rows: Optional[int], **kwargs) -> DataFrame:
    """Parsed (and optionally sampled) CSV; the caller must copy before
    handing the frame to script code — cached objects are shared."""
    if kwargs:
        frame = minipandas.read_csv(path, **kwargs)  # non-default reads bypass
        if sample_rows is not None and len(frame) > sample_rows:
            frame = frame.sample(n=sample_rows, random_state=0)
        return frame
    stat = os.stat(path)
    identity = (os.path.abspath(path), stat.st_mtime_ns, stat.st_size)
    if sample_rows is not None:
        sampled = _CSV_CACHE.get(identity + (sample_rows,))
        if sampled is not None:
            return sampled
    full = _CSV_CACHE.get(identity + (None,))
    if full is None:
        full = minipandas.read_csv(path)
        _CSV_CACHE[identity + (None,)] = full
    if sample_rows is not None and len(full) > sample_rows:
        sampled = full.sample(n=sample_rows, random_state=0)
        _CSV_CACHE[identity + (sample_rows,)] = sampled
        return sampled
    return full


class TableLoader:
    """A dialect's data loader, mapping script paths onto the run's data
    directory (the generalized ``read_csv`` resolver).

    ``wrap``, when set, converts the loaded frame into the dialect's own
    input object (e.g. a tablereport ``Design``) after the defensive
    copy — scripts mutate what they load, and cached tables are shared.
    """

    def __init__(
        self,
        data_dir: Optional[str],
        sample_rows: Optional[int],
        wrap: Optional[Callable[[DataFrame], Any]] = None,
    ):
        self.data_dir = data_dir
        self.sample_rows = sample_rows
        self.wrap = wrap

    def __call__(self, path: str, **kwargs):
        resolved = self._resolve(path)
        frame = load_table(resolved, self.sample_rows, **kwargs)
        # scripts mutate their frame; never hand out the cached object
        frame = frame.copy()
        return self.wrap(frame) if self.wrap is not None else frame

    def _resolve(self, path: str) -> str:
        if self.data_dir is None:
            return path
        if os.path.isabs(path) and os.path.exists(path):
            return path
        candidate = os.path.join(self.data_dir, os.path.basename(path))
        if os.path.exists(candidate):
            return candidate
        direct = os.path.join(self.data_dir, path)
        if os.path.exists(direct):
            return direct
        return path  # let the loader raise the natural FileNotFoundError


class ModuleProxy:
    """Proxy module exposing a substrate module with patched entry points.

    Instances are shared sandbox substrate, never script-mutable state —
    the incremental executor's snapshotter relies on that and shares
    them across snapshots without copying.
    """

    def __init__(self, module, overrides: Dict[str, Any]):
        self._module = module
        self._overrides = overrides

    def __getattr__(self, name: str):
        override = self._overrides.get(name)
        if override is not None:
            return override
        return getattr(self._module, name)


def _last_assigned_variable(source: str) -> Optional[str]:
    """Name of the last top-level assignment target (output convention)."""
    try:
        tree = ast_parse(source)
    except SyntaxError:
        return None
    last = None
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                last = target.id
    return last


class ApiDialect:
    """One standardizable API surface: call surface + sandbox shim + intent.

    Subclasses override the class attributes (and, when the defaults do
    not fit, the methods).  Dialects are stateless and shared
    process-wide through the registry in :mod:`repro.dialects`; every
    cross-process / persistence boundary carries only :attr:`name` and
    resolves it back through :func:`repro.dialects.get_dialect`.
    """

    #: registry identifier; also what LSConfig/snapshots/server jobs carry
    name: str = "dialect"
    #: root module scripts import to reach the API (``import pandas``)
    module_name: str = "module"
    #: entry-point functions that load the input artifact; these calls
    #: are protected statements (never deleted) and drive lemmatization's
    #: canonical renaming
    loader_names: frozenset = frozenset()
    #: canonical variable stem lemmatization renames loader results to
    #: (``df``, ``df2``, ... for pandas)
    canonical_base: str = "obj"
    #: the conventional output variable checked first by output capture
    output_variable: str = "out"
    #: additional stdlib/substrate modules scripts may import
    extra_modules: tuple = ("math", "re", "random")

    # ------------------------------------------------------------ sandbox shim
    def api_module(self):
        """The substrate module the proxy exposes (minipandas pattern)."""
        raise NotImplementedError

    def make_loader(self, data_dir: Optional[str], sample_rows: Optional[int]):
        """The resolver bound to this run's data directory."""
        return TableLoader(data_dir, sample_rows)

    def module_table(
        self, data_dir: Optional[str], sample_rows: Optional[int]
    ) -> Dict[str, Any]:
        """Modules scripts may import, and what they resolve to."""
        loader = self.make_loader(data_dir, sample_rows)
        overrides = {name: loader for name in self.loader_names}
        table: Dict[str, Any] = {
            self.module_name: ModuleProxy(self.api_module(), overrides)
        }
        for extra in self.extra_modules:
            table[extra] = __import__(extra)
        return table

    def select_output(
        self, namespace: Dict[str, Any], source: str
    ) -> Optional[DataFrame]:
        """Pick the script's output table: the conventional variable
        first, else the frame bound to the last assigned variable, else
        any frame in the namespace."""
        preferred = namespace.get(self.output_variable)
        if isinstance(preferred, DataFrame):
            return preferred
        last = _last_assigned_variable(source)
        if last and isinstance(namespace.get(last), DataFrame):
            return namespace[last]
        frames = [v for v in namespace.values() if isinstance(v, DataFrame)]
        return frames[-1] if frames else None

    # ----------------------------------------------------------------- display
    def describe(self) -> str:
        loaders = ", ".join(sorted(self.loader_names))
        return (
            f"{self.name}: import {self.module_name}, load via {loaders}, "
            f"canonical {self.canonical_base!r}, output {self.output_variable!r}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ApiDialect {self.name}>"
