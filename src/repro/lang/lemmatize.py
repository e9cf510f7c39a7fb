"""Static code lemmatization (Section 5.1, "Reducing Vocabulary").

Semantically equivalent steps written differently inflate the vocabulary:
``df['Age']`` and ``train['Age']`` are the same column when both frames were
read from the same CSV.  Lemmatization rewrites every script into a
canonical form before DAG construction:

1. dataframe variables assigned from ``read_csv`` are renamed to ``df``
   (``df2``, ``df3``, ... for additional distinct files), consistently
   across all scripts in a corpus;
2. plain aliases (``train = df``) inherit the canonical name;
3. the AST round-trip (`ast.unparse`) normalizes whitespace, quoting, and
   redundant parentheses.

A script is parsed once.  Each top-level statement's lemmatized text is
memoized process-wide in :data:`LEMMA_CACHE`, keyed by the statement's
text as written and the renames that can touch it, so a statement the
process has seen before costs one dictionary lookup.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Tuple

from .._astparse import ast_parse
from .._lru import LRUCache
from ..dialects import resolve_dialect
from .errors import ScriptParseError, UnsupportedScriptError

__all__ = [
    "LEMMA_CACHE",
    "LEMMA_CACHE_LIMIT",
    "lemmatize",
    "lemmatize_statements",
    "read_csv_files",
    "split_statements",
]

_UNSUPPORTED = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.While,
    ast.With,
    ast.Try,
)


def _parse(source: str) -> ast.Module:
    try:
        return ast_parse(source)
    except SyntaxError as exc:
        raise ScriptParseError(f"script is not valid Python: {exc}") from exc


def _check_straight_line(tree: ast.Module) -> None:
    for node in tree.body:
        if isinstance(node, _UNSUPPORTED):
            raise UnsupportedScriptError(
                f"unsupported construct at line {node.lineno}: {type(node).__name__}"
            )


def _read_csv_path(call: ast.Call, loader_names) -> Optional[str]:
    """Return the constant path argument of a loader call, if present."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name not in loader_names:
        return None
    if call.args and isinstance(call.args[0], ast.Constant):
        return str(call.args[0].value)
    return "<dynamic>"


def read_csv_files(source: str, dialect=None) -> List[str]:
    """List the distinct data paths a script loads, in first-read order."""
    loader_names = resolve_dialect(dialect).loader_names
    tree = _parse(source)
    paths: List[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            path = _read_csv_path(node, loader_names)
            if path is not None and path not in paths:
                paths.append(path)
    return paths


def _build_rename_map(tree: ast.Module, dialect) -> Dict[str, str]:
    """Map loader-result variable names to the (resolved) dialect's
    canonical ``df``/``df2``/... (pandas) or ``design``/``design2``/...
    names."""
    loader_names, base = dialect.loader_names, dialect.canonical_base
    canonical_by_path: Dict[str, str] = {}
    rename: Dict[str, str] = {}
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        if isinstance(value, ast.Call):
            path = _read_csv_path(value, loader_names)
            if path is not None:
                if path not in canonical_by_path:
                    suffix = "" if not canonical_by_path else str(len(canonical_by_path) + 1)
                    canonical_by_path[path] = f"{base}{suffix}"
                rename[target.id] = canonical_by_path[path]
        elif isinstance(value, ast.Name) and value.id in rename:
            # plain alias: train = df
            rename[target.id] = rename[value.id]
    return {old: new for old, new in rename.items() if old != new}


def split_statements(source: str) -> List[str]:
    """Split a script into one normalized source line per statement."""
    tree = _parse(source)
    _check_straight_line(tree)
    return [ast.unparse(node) for node in tree.body]


def statement_sources(
    source: str, body: Sequence[ast.stmt]
) -> List[Tuple[str, int]]:
    """``(text, first line)`` of each statement in *body* as *source*
    writes it.

    AST columns count UTF-8 bytes, and the tokenizer breaks lines only at
    ``\\n``, ``\\r\\n`` and a lone ``\\r`` -- exactly where
    ``bytes.splitlines`` breaks (``str.splitlines`` also breaks at
    ``\\x0c``, ``\\x1c``, ``\\u2028`` and others).  A decorated
    definition starts at the ``@`` of its first decorator, not at the
    ``def``/``class`` line the node reports.  At top level that ``@`` is
    the first non-blank character of its line (a decorator cannot follow
    ``;``): the first such line at or above the decorator expression,
    which may sit on a later line behind ``(`` or ``\\``.
    """
    data = source.encode()
    lines = data.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))
    spans = []
    for node in body:
        first, col = node.lineno - 1, node.col_offset
        decorators = getattr(node, "decorator_list", None)
        if decorators:
            first = decorators[0].lineno - 1
            while not lines[first].lstrip(b" \t\x0c").startswith(b"@"):
                first -= 1
            col = len(lines[first]) - len(lines[first].lstrip(b" \t\x0c"))
        end = starts[node.end_lineno - 1] + node.end_col_offset
        spans.append((data[starts[first] + col : end].decode(), first + 1))
    return spans


def rename_names(node: ast.AST, mapping: Dict[str, str]) -> None:
    """Rename, in place, every variable under *node* that *mapping* names."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id in mapping:
            child.id = mapping[child.id]


#: Capacity of :data:`LEMMA_CACHE`, in raw statement forms.  The forms of
#: one corpus's statements recur across its scripts and its queries.
LEMMA_CACHE_LIMIT = 4096

#: ``(dialect name, renames, raw statement text) -> lemmatized text``,
#: shared by every script in the process.  A top-level statement's AST
#: depends only on its own text, so its lemmatized text depends only on
#: that text and on the renames of the names it contains.  The key's
#: renames are the script's ``(old, new)`` pairs whose old name occurs in
#: the raw text -- a superset of those names, so the key is exact.  The
#: parser NFKC-normalizes identifiers, so a non-ASCII text keys on every
#: pair instead.
LEMMA_CACHE = LRUCache(LEMMA_CACHE_LIMIT, thread_safe=True)

#: One lemmatized statement: its text, its AST node as parsed, and the
#: renames not yet applied to that node (empty once applied).
LemmaStatement = Tuple[str, ast.stmt, Tuple[Tuple[str, str], ...]]


def lemmatize_statements(source: str, dialect=None) -> List[LemmaStatement]:
    """Lemmatize *source* statement by statement, from one parse.

    A statement whose text :data:`LEMMA_CACHE` holds is neither renamed
    nor unparsed; its node comes back with the renames still pending, for
    a caller that needs the renamed node to rename on demand.  Raises
    as :func:`lemmatize` does.
    """
    dialect = resolve_dialect(dialect)
    tree = _parse(source)
    _check_straight_line(tree)
    renames = tuple(_build_rename_map(tree, dialect).items())
    name = dialect.name
    statements: List[LemmaStatement] = []
    for node, (raw, _) in zip(tree.body, statement_sources(source, tree.body)):
        if raw.isascii():
            applicable = tuple(pair for pair in renames if pair[0] in raw)
        else:
            applicable = renames
        key = (name, applicable, raw)
        text = LEMMA_CACHE.get(key)
        if text is None:
            if applicable:
                rename_names(node, dict(applicable))
                applicable = ()
            text = ast.unparse(node)
            LEMMA_CACHE[key] = text
        statements.append((text, node, applicable))
    return statements


def lemmatize(source: str, dialect=None) -> str:
    """Return the canonical (lemmatized) form of *source*.

    *dialect* (an :class:`~repro.dialects.ApiDialect` or a registered
    name; None means pandas) supplies the loader entry points and the
    canonical variable stem; everything else is surface-independent.

    Raises
    ------
    ScriptParseError
        If the script is not valid Python.
    UnsupportedScriptError
        If it uses constructs outside the supported straight-line class.
    """
    return "\n".join(text for text, _, _ in lemmatize_statements(source, dialect))
