"""Every name a module under ``src/repro`` imports is read in that module.

A name counts as read when it is loaded, is the root of an attribute
chain, appears inside a string annotation (parsed as an expression), or
is listed in the module's ``__all__``.  Package ``__init__`` modules
import in order to re-export, so they are left out.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


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
