"""Extracting data-preparation scripts from Jupyter notebooks.

The paper's corpora come from Kaggle, where most "scripts" are actually
notebooks.  This module flattens a notebook's code cells into one
straight-line script: IPython magics (``%matplotlib``, ``!pip``) and
display-only trailing expressions (``df.head()`` as a cell's last line)
are dropped, everything else is concatenated in cell order.
"""

from __future__ import annotations

import ast
import json
from typing import Any, Dict, List, Union

from .._astparse import ast_parse

__all__ = ["script_from_notebook"]

#: Cell-trailing expression calls that only exist to display output.
_DISPLAY_CALLS = {"head", "tail", "describe", "info", "display", "print", "sample"}


def _cell_source(cell: Dict[str, Any]) -> str:
    source = cell.get("source", "")
    if isinstance(source, list) and all(isinstance(part, str) for part in source):
        return "".join(source)
    if not isinstance(source, str):
        raise ValueError(
            "notebook code cell source must be a string or a list of strings, "
            f"got {_shape(source)}"
        )
    return source


def _shape(value: Any) -> str:
    """A JSON value's type, with its items' types for a list."""
    if isinstance(value, list):
        return f"list of {'/'.join(sorted({type(item).__name__ for item in value}))}"
    return type(value).__name__


def _strip_magics(source: str) -> str:
    lines = []
    for line in source.splitlines():
        stripped = line.lstrip()
        if stripped.startswith(("%", "!", "?")):
            continue
        lines.append(line)
    return "\n".join(lines)


def _is_display_expression(node: ast.stmt) -> bool:
    """A bare trailing expression whose value is only shown, not used."""
    if not isinstance(node, ast.Expr):
        return False
    value = node.value
    if isinstance(value, ast.Call):
        func = value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        return name in _DISPLAY_CALLS
    # a bare name/subscript at cell end (e.g. `df` or `df.columns`)
    return isinstance(value, (ast.Name, ast.Attribute, ast.Subscript))


def _clean_cell(source: str) -> List[str]:
    source = _strip_magics(source)
    try:
        tree = ast_parse(source)
    except SyntaxError:
        return []  # skip cells that are not plain Python
    kept = [node for node in tree.body if not _is_display_expression(node)]
    return [ast.unparse(node) for node in kept]


def script_from_notebook(notebook: Union[str, Dict[str, Any]]) -> str:
    """Flatten a notebook (path or parsed JSON) into one script.

    Raises
    ------
    ValueError
        If the document has no code cells, or is not shaped as a notebook
        (an object whose ``cells`` are objects).
    """
    if isinstance(notebook, str):
        with open(notebook, "r") as handle:
            notebook = json.load(handle)
    if not isinstance(notebook, dict):
        raise ValueError(f"notebook must be a JSON object, got {_shape(notebook)}")
    cells = notebook.get("cells", [])
    if not isinstance(cells, list) or not all(isinstance(c, dict) for c in cells):
        raise ValueError(f"notebook cells must be a list of objects, got {_shape(cells)}")
    statements: List[str] = []
    saw_code_cell = False
    for cell in cells:
        if cell.get("cell_type") != "code":
            continue
        saw_code_cell = True
        statements.extend(_clean_cell(_cell_source(cell)))
    if not saw_code_cell:
        raise ValueError("notebook contains no code cells")
    return "\n".join(statements)
