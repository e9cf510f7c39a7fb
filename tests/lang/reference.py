"""The two-pass lang front end, kept as the reference for the one-pass one.

``lemmatize`` parses a script, renames its variables across the whole
tree and unparses every top-level statement; ``parse_script`` parses the
joined text a second time and builds each statement from its node.
Nothing is cached.  :mod:`repro.lang` must give the same text, the same
statements and the same errors (``tests/lang/test_front_end_oracle.py``).
"""

from __future__ import annotations

import ast
from typing import Dict, List

from repro.dialects import resolve_dialect
from repro.lang.errors import ScriptParseError
from repro.lang.lemmatize import _build_rename_map, _check_straight_line, _parse
from repro.lang.parser import Statement


class _Renamer(ast.NodeTransformer):
    def __init__(self, mapping: Dict[str, str]):
        self.mapping = mapping

    def visit_Name(self, node: ast.Name) -> ast.Name:
        if node.id in self.mapping:
            return ast.copy_location(
                ast.Name(id=self.mapping[node.id], ctx=node.ctx), node
            )
        return node


def lemmatize(source: str, dialect=None) -> str:
    tree = _parse(source)
    _check_straight_line(tree)
    mapping = _build_rename_map(tree, resolve_dialect(dialect))
    if mapping:
        tree = _Renamer(mapping).visit(tree)
        ast.fix_missing_locations(tree)
    return "\n".join(ast.unparse(node) for node in tree.body)


def parse_script(source: str, lemmatized: bool = False, dialect=None) -> List[Statement]:
    normalized = source if lemmatized else lemmatize(source, dialect=dialect)
    try:
        tree = ast.parse(normalized)
    except SyntaxError as exc:
        raise ScriptParseError(str(exc)) from exc
    return [
        Statement.from_ast(index, node, resolve_dialect(dialect))
        for index, node in enumerate(tree.body)
    ]
