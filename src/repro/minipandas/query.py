"""``DataFrame.query`` — filter rows with a boolean expression string.

Implements the subset of pandas' query language that data-preparation
scripts use: column names, comparisons (including chained ones),
``and``/``or``/``not`` (plus ``&``/``|``/``~``), arithmetic, ``in``
membership, parentheses, and ``@variable`` references resolved against a
caller-supplied mapping.  Expressions are parsed with :mod:`ast` and
evaluated against Series operations — no ``eval`` of arbitrary code.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Optional

from .._astparse import ast_parse
from .series import Series

__all__ = ["evaluate_query"]

_ALLOWED_CALLS = {"abs"}


class _QueryEvaluator(ast.NodeVisitor):
    def __init__(self, frame, variables: Dict[str, Any]):
        self._frame = frame
        self._variables = variables

    # -- leaves -----------------------------------------------------------
    def visit_Name(self, node: ast.Name):
        if node.id in self._frame.columns:
            return self._frame[node.id]
        if node.id in ("True", "False", "None"):  # pragma: no cover - py<3.8
            return {"True": True, "False": False, "None": None}[node.id]
        raise ValueError(f"unknown column {node.id!r} in query")

    def visit_Constant(self, node: ast.Constant):
        return node.value

    def visit_List(self, node: ast.List):
        return [self.visit(e) for e in node.elts]

    def visit_Tuple(self, node: ast.Tuple):
        return [self.visit(e) for e in node.elts]

    # -- @variables ---------------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute):
        raise ValueError("attribute access is not allowed in query expressions")

    def _resolve_at(self, name: str):
        if name not in self._variables:
            raise ValueError(f"undefined query variable @{name}")
        return self._variables[name]

    # -- operators ----------------------------------------------------------
    def visit_Compare(self, node: ast.Compare):
        result = None
        left = self.visit(node.left)
        for op, comparator in zip(node.ops, node.comparators):
            right = self.visit(comparator)
            part = self._compare(left, op, right)
            result = part if result is None else result & part
            left = right
        return result

    def _compare(self, left, op, right):
        if isinstance(op, ast.Eq):
            return left == right
        if isinstance(op, ast.NotEq):
            return left != right
        if isinstance(op, ast.Lt):
            return left < right
        if isinstance(op, ast.LtE):
            return left <= right
        if isinstance(op, ast.Gt):
            return left > right
        if isinstance(op, ast.GtE):
            return left >= right
        if isinstance(op, ast.In):
            if not isinstance(left, Series):
                raise ValueError("'in' requires a column on the left")
            return left.isin(right)
        if isinstance(op, ast.NotIn):
            if not isinstance(left, Series):
                raise ValueError("'not in' requires a column on the left")
            return ~left.isin(right)
        raise ValueError(f"unsupported comparison: {type(op).__name__}")

    def visit_BoolOp(self, node: ast.BoolOp):
        values = [self.visit(v) for v in node.values]
        result = values[0]
        for value in values[1:]:
            result = (result & value) if isinstance(node.op, ast.And) else (result | value)
        return result

    def visit_BinOp(self, node: ast.BinOp):
        left, right = self.visit(node.left), self.visit(node.right)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            return left / right
        if isinstance(node.op, ast.Mod):
            return left % right
        if isinstance(node.op, ast.Pow):
            return left ** right
        if isinstance(node.op, ast.BitAnd):
            return left & right
        if isinstance(node.op, ast.BitOr):
            return left | right
        raise ValueError(f"unsupported operator: {type(node.op).__name__}")

    def visit_UnaryOp(self, node: ast.UnaryOp):
        operand = self.visit(node.operand)
        if isinstance(node.op, (ast.Not, ast.Invert)):
            return ~operand if isinstance(operand, Series) else not operand
        if isinstance(node.op, ast.USub):
            return -operand
        raise ValueError(f"unsupported unary operator: {type(node.op).__name__}")

    def visit_Call(self, node: ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in _ALLOWED_CALLS:
            args = [self.visit(a) for a in node.args]
            if node.func.id == "abs":
                value = args[0]
                return value.abs() if isinstance(value, Series) else abs(value)
        raise ValueError("only abs() calls are allowed in query expressions")

    def generic_visit(self, node):
        raise ValueError(
            f"unsupported syntax in query expression: {type(node).__name__}"
        )

    def visit(self, node):  # dispatch without falling into generic iteration
        method = getattr(self, f"visit_{type(node).__name__}", None)
        if method is None:
            return self.generic_visit(node)
        return method(node)


def _substitute_at_variables(expression: str) -> str:
    """Rewrite ``@name`` into a resolvable marker (``__at_name``)."""
    return expression.replace("@", "__at_")


def evaluate_query(
    frame, expression: str, variables: Optional[Dict[str, Any]] = None
):
    """Evaluate a query *expression* against *frame*, returning a mask."""
    variables = variables or {}
    rewritten = _substitute_at_variables(expression)
    try:
        tree = ast_parse(rewritten, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"invalid query expression: {expression!r}") from exc

    class _WithAt(_QueryEvaluator):
        def visit_Name(self, node: ast.Name):
            if node.id.startswith("__at_"):
                return self._resolve_at(node.id[len("__at_"):])
            return super().visit_Name(node)

    mask = _WithAt(frame, variables).visit(tree.body)
    if not isinstance(mask, Series) or mask.dtype != "bool":
        raise ValueError("query expression must evaluate to a boolean mask")
    return mask
