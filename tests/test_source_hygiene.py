"""Every name a module under ``src/repro`` imports is read in that module,
the package declares exactly the third-party packages it imports, and
every name the benchmark in ``perfbench/`` reads from ``src/`` exists.

A name counts as read when it is loaded, is the root of an attribute
chain, appears inside a string annotation (parsed as an expression), or
is listed in the module's ``__all__``.  Package ``__init__`` modules
import in order to re-export, so they are left out.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _imported_names(tree):
    """``(bound name, line)`` for every import in *tree*."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = node.args
            for arg in (
                arguments.posonlyargs + arguments.args + arguments.kwonlyargs
                + [arguments.vararg, arguments.kwarg]
            ):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree):
    read = set()
    for node in ast.walk(tree):
        # an attribute chain's root is a Name in Load context too
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= _read_names(ast.parse(node.value, mode="eval"))
    for node in tree.body if isinstance(tree, ast.Module) else ():
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
        ):
            read |= {
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant)
            }
    return read


def unused_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    read = _read_names(tree)
    return sorted(
        (line, name) for name, line in _imported_names(tree) if name not in read
    )


def test_modules_read_every_name_they_import():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [
        f"{path.relative_to(SRC)}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(path)
    ]
    assert unused == []


def third_party_imports():
    """Top-level name of every absolute import under ``src/repro`` that is
    neither the standard library nor ``repro`` itself."""
    names = set()
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"repro"}


def test_declared_dependencies_are_the_imported_packages():
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    with open(ROOT / "pyproject.toml", "rb") as handle:
        declared = tomllib.load(handle)["project"]["dependencies"]
    # a requirement may carry a version, marker or extras after its name
    names = {re.split(r"[\s<>=!~;\[]", requirement)[0] for requirement in declared}
    assert sorted(third_party_imports()) == sorted(names)


def _perfbench_module(name):
    """``perfbench/<name>.py``, loaded by path (it imports only the
    standard library), without entering ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestPerfbenchNames:
    """A rename in ``src/`` that perfbench reads fails here, in tier-1,
    before the benchmark's own steps run."""

    def test_every_traced_entry_point_resolves(self):
        targets = _perfbench_module("spans").TARGETS
        assert targets
        for span, (module_name, attr) in targets.items():
            owner = importlib.import_module(module_name)
            for part in attr.split("."):
                owner = getattr(owner, part)
            assert inspect.isroutine(owner), (span, module_name, attr)

    def test_every_summed_stat_is_a_search_stats_field(self):
        from repro.core import SearchStats

        fields = {field.name for field in dataclasses.fields(SearchStats)}
        read = set(_perfbench_module("layers").STAT_FIELDS)
        read.add("prefix_mean_resume_depth")  # StatsTotals.add
        assert read <= fields, sorted(read - fields)

    def test_corpus_and_retrieval_counters(self):
        from repro.corpus import CorpusCacheCounters, RetrievalIndex

        fields = {field.name for field in dataclasses.fields(CorpusCacheCounters)}
        assert {"index_hits", "script_hits", "script_parses"} <= fields
        assert callable(CorpusCacheCounters.delta)
        snapshot = RetrievalIndex().counters.snapshot()
        assert isinstance(snapshot, tuple) and len(snapshot) == 3

    def test_the_traced_server_wraps_existing_methods(self):
        from repro.core import LucidScript
        from repro.server.engine import StandardizationServer
        from repro.server.queue import JobQueue

        for owner, name in (
            (JobQueue, "take_wave"),
            (StandardizationServer, "_run_job"),
            (LucidScript, "standardize"),
        ):
            assert inspect.isfunction(getattr(owner, name, None)), name
