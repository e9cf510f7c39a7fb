"""Script → DAG parsing (Section 3).

A lemmatized script is decomposed into :class:`Statement` records, each
carrying its n-gram atom (the statement text), its 1-gram atoms (operation
invocations), intra-statement data-flow edges between nested invocations,
and the variables it reads/writes.  The :class:`ScriptDAG` then derives
inter-statement edges from the def-use chain over those variables.

:func:`parse_script` lemmatizes and parses a script from one AST pass and
takes each statement from the process-wide :data:`STATEMENT_CACHE`, so a
statement the process has seen before is never rebuilt.
"""

from __future__ import annotations

import ast
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .._astparse import ast_parse
from .._lru import LRUCache
from ..dialects import resolve_dialect
from .atoms import NGRAM, ONEGRAM, Atom, Edge
from .errors import ScriptParseError
from .lemmatize import lemmatize_statements, rename_names, statement_sources

__all__ = [
    "Statement",
    "ScriptDAG",
    "EdgeState",
    "parse_script",
    "parse_statement",
    "STATEMENT_CACHE",
    "extract_onegrams",
    "compute_edge_counts",
]

#: AST node classes treated as invocation nodes (Definition 3.1).
_INVOCATION_TYPES = (ast.Call, ast.Subscript, ast.BinOp, ast.Compare, ast.BoolOp, ast.UnaryOp)

_OP_SYMBOLS = {
    ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.FloorDiv: "//",
    ast.Mod: "%", ast.Pow: "**", ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<",
    ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.In: "in", ast.NotIn: "not in",
    ast.And: "and", ast.Or: "or", ast.Not: "not", ast.USub: "neg", ast.UAdd: "pos",
    ast.Invert: "~", ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^",
    ast.Is: "is", ast.IsNot: "is not",
}


def _data_token(node: ast.AST) -> str:
    """Canonical token for a data node (name/constant/attribute chain)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant):
        return repr(node.value)
    if isinstance(node, ast.Attribute):
        return f"{_data_token(node.value)}.{node.attr}"
    if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
        inner = ",".join(_data_token(e) for e in node.elts)
        return f"[{inner}]"
    if isinstance(node, ast.Dict):
        return "{...}"
    if isinstance(node, ast.Slice):
        parts = [
            _data_token(p) if p is not None else ""
            for p in (node.lower, node.upper, node.step)
        ]
        return ":".join(parts)
    if isinstance(node, ast.Starred):
        return f"*{_data_token(node.value)}"
    if isinstance(node, _INVOCATION_TYPES):
        return "@"  # nested invocation placeholder
    return type(node).__name__


def _invocation_name(node: ast.AST) -> str:
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute):
            return func.attr
        if isinstance(func, ast.Name):
            return func.id
        return "call"
    if isinstance(node, ast.Subscript):
        return "subscript"
    if isinstance(node, ast.BinOp):
        return _OP_SYMBOLS.get(type(node.op), "binop")
    if isinstance(node, ast.Compare):
        return _OP_SYMBOLS.get(type(node.ops[0]), "cmp") if node.ops else "cmp"
    if isinstance(node, ast.BoolOp):
        return _OP_SYMBOLS.get(type(node.op), "boolop")
    if isinstance(node, ast.UnaryOp):
        return _OP_SYMBOLS.get(type(node.op), "unaryop")
    raise TypeError(f"not an invocation node: {type(node).__name__}")


def _invocation_children(node: ast.AST) -> List[ast.AST]:
    """Direct operand nodes of an invocation, in evaluation order."""
    if isinstance(node, ast.Call):
        children: List[ast.AST] = []
        if isinstance(node.func, ast.Attribute):
            children.append(node.func.value)
        children.extend(node.args)
        children.extend(kw.value for kw in node.keywords)
        return children
    if isinstance(node, ast.Subscript):
        return [node.value, node.slice]
    if isinstance(node, ast.BinOp):
        return [node.left, node.right]
    if isinstance(node, ast.Compare):
        return [node.left, *node.comparators]
    if isinstance(node, ast.BoolOp):
        return list(node.values)
    if isinstance(node, ast.UnaryOp):
        return [node.operand]
    return []


def _signature(node: ast.AST) -> str:
    args = ",".join(_data_token(c) for c in _invocation_children(node))
    return f"{_invocation_name(node)}({args})"


def extract_onegrams(stmt: ast.stmt) -> Tuple[List[Atom], List[Edge]]:
    """Collect 1-gram atoms and intra-statement edges from one statement.

    Edges run from each nested invocation to the invocation that consumes
    its result (data flows child → parent).
    """
    atoms: List[Atom] = []
    edges: List[Edge] = []

    def visit(node: ast.AST, parent_sig: Optional[str]) -> None:
        if isinstance(node, _INVOCATION_TYPES):
            sig = _signature(node)
            atoms.append(Atom(ONEGRAM, sig))
            if parent_sig is not None:
                edges.append(Edge(sig, parent_sig))
            for child in _invocation_children(node):
                visit(child, sig)
            # also walk attribute receivers inside func chains (df.a.b())
            return
        for child in ast.iter_child_nodes(node):
            visit(child, parent_sig)

    visit(stmt, None)
    return atoms, edges


def _variables(stmt: ast.stmt) -> Tuple[Set[str], Set[str]]:
    """Return (reads, writes) of top-level variable names for a statement."""
    reads: Set[str] = set()
    writes: Set[str] = set()
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            writes.add(alias.asname or alias.name.split(".")[0])
        return reads, writes
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store):
                writes.add(node.id)
            else:
                reads.add(node.id)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            # df.loc[...] = v / df['x'] = v mutates the base frame
            base = node.value
            while isinstance(base, (ast.Attribute, ast.Subscript)):
                base = base.value
            if isinstance(base, ast.Name):
                writes.add(base.id)
                reads.add(base.id)
    return reads, writes


@dataclass
class Statement:
    """One straight-line statement with its atoms and def-use sets."""

    index: int
    source: str
    ngram: Atom
    onegrams: List[Atom]
    intra_edges: List[Edge]
    reads: Set[str]
    writes: Set[str]
    is_import: bool
    is_read_csv: bool

    @classmethod
    def from_ast(
        cls, index: int, node: ast.stmt, dialect, source: Optional[str] = None
    ) -> "Statement":
        """The statement of *node* under *dialect*, a resolved
        :class:`~repro.dialects.ApiDialect`; *source*, when given, is its
        ``ast.unparse`` text, which the caller already holds."""
        if source is None:
            source = ast.unparse(node)
        onegrams, intra_edges = extract_onegrams(node)
        reads, writes = _variables(node)
        is_import = isinstance(node, (ast.Import, ast.ImportFrom))
        # a data load invokes a loader by name; a 1-gram that merely
        # mentions one (``drop(df,['read_csv_flag'])``) is not a load
        is_read_csv = any(
            a.signature.partition("(")[0] in dialect.loader_names for a in onegrams
        )
        return cls(
            index=index,
            source=source,
            ngram=Atom(NGRAM, source),
            onegrams=onegrams,
            intra_edges=intra_edges,
            reads=reads,
            writes=writes,
            is_import=is_import,
            is_read_csv=is_read_csv,
        )

    @classmethod
    def from_source(cls, index: int, source: str, dialect=None) -> "Statement":
        try:
            tree = ast_parse(source)
        except SyntaxError as exc:
            raise ScriptParseError(f"invalid statement {source!r}: {exc}") from exc
        if len(tree.body) != 1:
            raise ScriptParseError(
                f"expected a single statement, got {len(tree.body)}: {source!r}"
            )
        return cls.from_ast(index, tree.body[0], resolve_dialect(dialect))

    @property
    def protected(self) -> bool:
        """Imports and data loads are never deleted by transformations."""
        return self.is_import or self.is_read_csv

    def at(self, index: int) -> "Statement":
        """This statement at position *index*, sharing every other field."""
        if index == self.index:
            return self
        return Statement(
            index=index,
            source=self.source,
            ngram=self.ngram,
            onegrams=self.onegrams,
            intra_edges=self.intra_edges,
            reads=self.reads,
            writes=self.writes,
            is_import=self.is_import,
            is_read_csv=self.is_read_csv,
        )


#: Capacity of :data:`STATEMENT_CACHE`.  Add candidates are corpus
#: statement texts (n-gram signatures and 1-gram templates), so every
#: search over one corpus proposes the same few hundred statements, and
#: the scripts of one corpus share most of theirs.
STATEMENT_CACHE_LIMIT = 2048

#: ``(dialect name, statement text) -> Statement.from_source(0, text)``,
#: shared by every script parse and every search in the process.
#: Sharing is safe because no code mutates a Statement or its lists and
#: sets (:class:`EdgeState` relies on the same); a script's statement is
#: the shared one moved to its position with :meth:`Statement.at`.
STATEMENT_CACHE = LRUCache(STATEMENT_CACHE_LIMIT, thread_safe=True)


def parse_statement(source: str, dialect=None) -> Statement:
    """``Statement.from_source(0, source, dialect)``, parsed once per process.

    A statement that fails to parse raises every time.  The key is the
    dialect's name, so None and the registered pandas dialect share
    entries.
    """
    dialect = resolve_dialect(dialect)
    key = (dialect.name, source)
    statement = STATEMENT_CACHE.get(key)
    if statement is None:
        statement = Statement.from_source(0, source, dialect=dialect)
        STATEMENT_CACHE[key] = statement
    return statement


class ScriptDAG:
    """The DAG representation G_s = (A, E') of a lemmatized script.

    ``normalized`` is the lemmatized text :func:`parse_script` built the
    DAG from (None for a DAG assembled from statements directly).
    """

    def __init__(self, statements: List[Statement], normalized: Optional[str] = None):
        self.statements = statements
        self.normalized = normalized

    # ------------------------------------------------------------------ source
    def source(self) -> str:
        return "\n".join(s.source for s in self.statements)

    def __len__(self) -> int:
        return len(self.statements)

    # ------------------------------------------------------------------- edges
    def inter_edges(self) -> List[Edge]:
        """Def-use chain edges between statements (n-gram level)."""
        edges: List[Edge] = []
        last_writer: Dict[str, Statement] = {}
        for stmt in self.statements:
            linked: Set[int] = set()
            for var in sorted(stmt.reads):
                writer = last_writer.get(var)
                if writer is not None and writer.index != stmt.index:
                    if writer.index not in linked:
                        edges.append(Edge(writer.ngram.signature, stmt.ngram.signature))
                        linked.add(writer.index)
            for var in stmt.writes:
                last_writer[var] = stmt
        return edges

    def intra_edges(self) -> List[Edge]:
        out: List[Edge] = []
        for stmt in self.statements:
            out.extend(stmt.intra_edges)
        return out

    def edges(self) -> List[Edge]:
        """All data-flow edges E' (intra- and inter-statement)."""
        return self.intra_edges() + self.inter_edges()

    def edge_counter(self) -> Counter:
        return Counter(e.as_tuple() for e in self.edges())

    # ------------------------------------------------------------------- atoms
    def onegram_counter(self) -> Counter:
        return Counter(a.signature for s in self.statements for a in s.onegrams)

    def ngram_counter(self) -> Counter:
        return Counter(s.ngram.signature for s in self.statements)


def compute_edge_counts(statements) -> Counter:
    """Edge multiset of a statement sequence, by *position* (not index).

    Equivalent to ``ScriptDAG(statements).edge_counter()`` for a properly
    renumbered list, but works on any sequence view — e.g. a candidate
    with one statement virtually inserted or removed — without
    constructing new Statement objects.  This is what makes the paper's
    "marginally update P(x) instead of performing the transformation"
    scoring path cheap (Section 5.2).
    """
    counts: Counter = Counter()
    last_writer: Dict[str, Tuple[int, str]] = {}
    for position, stmt in enumerate(statements):
        for edge in stmt.intra_edges:
            counts[edge.as_tuple()] += 1
        linked: Set[int] = set()
        for var in sorted(stmt.reads):
            writer = last_writer.get(var)
            if writer is not None and writer[0] != position:
                if writer[0] not in linked:
                    counts[(writer[1], stmt.ngram.signature)] += 1
                    linked.add(writer[0])
        for var in stmt.writes:
            last_writer[var] = (position, stmt.ngram.signature)
    return counts


#: Sentinel writer identity for a statement being virtually inserted; must
#: compare unequal to every real position so per-reader dedup treats the
#: newcomer as one distinct writer.
_INSERTED = object()


class EdgeState:
    """Positional edge bookkeeping that supports O(Δ) insert/delete deltas.

    Holds, for one statement sequence, the edge multiset of
    :func:`compute_edge_counts` plus per-variable writer/reader position
    indexes.  Given those, the edge *delta* of splicing one statement in
    or out touches only

    * the spliced statement's intra-edges and its own incoming def-use
      links, and
    * downstream readers whose last-writer binding crosses the splice
      point (reads of the spliced statement's writes up to the next
      writer of each variable),

    instead of re-walking the whole script.  Scoring a candidate
    transformation therefore costs O(edges touched), not
    O(script × vocabulary) — the engine behind every GetSteps score
    (``LSConfig.audit`` checks it against the full recount).
    """

    __slots__ = ("statements", "counts", "_writers", "_readers", "_incoming_memo")

    def __init__(
        self,
        statements: Tuple[Statement, ...],
        counts: Counter,
        writers: Dict[str, List[int]],
        readers: Dict[str, List[int]],
    ):
        self.statements = statements
        self.counts = counts
        self._writers = writers
        self._readers = readers
        #: position -> base incoming-edge multiset; the statements are
        #: immutable, and one GetSteps wave probes the same readers from
        #: many deltas, so base bindings are computed once per position
        self._incoming_memo: Dict[int, Dict[Tuple[str, str], int]] = {}

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_statements(cls, statements: Sequence[Statement]) -> "EdgeState":
        """Full positional walk: the one recount per visited candidate."""
        statements = tuple(statements)
        counts: Counter = Counter()
        writers: Dict[str, List[int]] = {}
        readers: Dict[str, List[int]] = {}
        last_writer: Dict[str, Tuple[int, str]] = {}
        for position, stmt in enumerate(statements):
            for edge in stmt.intra_edges:
                counts[edge.as_tuple()] += 1
            linked: Set[int] = set()
            for var in stmt.reads:
                readers.setdefault(var, []).append(position)
                writer = last_writer.get(var)
                if writer is not None and writer[0] != position:
                    if writer[0] not in linked:
                        counts[(writer[1], stmt.ngram.signature)] += 1
                        linked.add(writer[0])
            for var in stmt.writes:
                writers.setdefault(var, []).append(position)
                last_writer[var] = (position, stmt.ngram.signature)
        return cls(statements, counts, writers, readers)

    def __len__(self) -> int:
        return len(self.statements)

    # ---------------------------------------------------------------- bindings
    def _last_writer_before(self, var: str, position: int) -> Optional[int]:
        """Position of the last writer of *var* strictly before *position*."""
        positions = self._writers.get(var)
        if not positions:
            return None
        i = bisect_left(positions, position)
        return positions[i - 1] if i else None

    def _incoming(
        self,
        position: int,
        skip: Optional[int] = None,
        inserted_at: Optional[int] = None,
        inserted: Optional[Statement] = None,
    ) -> Dict[Tuple[str, str], int]:
        """Incoming inter-edge multiset of the reader statement at *position*.

        ``skip`` rebinds reads whose last writer is the statement being
        deleted to the previous writer of the same variable; ``inserted``
        (with ``inserted_at``) rebinds reads whose last writer falls
        before the insertion point to the virtually inserted statement.
        Dedup follows :func:`compute_edge_counts`: one edge per distinct
        writer per reader, regardless of how many variables bind to it.
        """
        stmt = self.statements[position]
        sig = stmt.ngram.signature
        edges: Dict[Tuple[str, str], int] = {}
        linked: Set[object] = set()
        inserted_writes = inserted.writes if inserted is not None else ()
        for var in stmt.reads:
            writer: object = self._last_writer_before(var, position)
            if skip is not None and writer == skip:
                writer = self._last_writer_before(var, skip)
            if (
                inserted is not None
                and var in inserted_writes
                and (writer is None or writer < inserted_at)  # type: ignore[operator]
            ):
                writer = _INSERTED
            if writer is None or writer in linked:
                continue
            linked.add(writer)
            if writer is _INSERTED:
                writer_sig = inserted.ngram.signature  # type: ignore[union-attr]
            else:
                writer_sig = self.statements[writer].ngram.signature  # type: ignore[index]
            edge = (writer_sig, sig)
            edges[edge] = edges.get(edge, 0) + 1
        return edges

    def _base_incoming(self, position: int) -> Dict[Tuple[str, str], int]:
        """Memoized :meth:`_incoming` with no splice adjustments applied."""
        cached = self._incoming_memo.get(position)
        if cached is None:
            cached = self._incoming(position)
            self._incoming_memo[position] = cached
        return cached

    def _affected_readers(
        self, write_vars: Set[str], lo: int, inclusive: bool
    ) -> List[int]:
        """Readers whose last-writer binding crosses the splice at *lo*.

        For a delete at ``lo`` (``inclusive=False``): readers strictly
        after ``lo`` bound to it — i.e. before the next writer of the
        variable.  For an insert at ``lo`` (``inclusive=True``): readers
        at or after ``lo`` currently bound before it.
        """
        affected: Set[int] = set()
        for var in write_vars:
            reader_positions = self._readers.get(var)
            if not reader_positions:
                continue
            writer_positions = self._writers.get(var, [])
            if inclusive:
                i = bisect_left(writer_positions, lo)
                start = bisect_left(reader_positions, lo)
            else:
                i = bisect_right(writer_positions, lo)
                start = bisect_right(reader_positions, lo)
            nxt = writer_positions[i] if i < len(writer_positions) else len(
                self.statements
            )
            # the window is inclusive of ``nxt`` itself: a statement that
            # both reads and writes the variable binds its read *before*
            # its own write, so its last writer still crosses the splice
            for r in reader_positions[start:]:
                if r > nxt:
                    break
                affected.add(r)
        return sorted(affected)

    # ------------------------------------------------------------------ deltas
    def delta_delete(self, position: int) -> Dict[Tuple[str, str], int]:
        """Edge delta of deleting the statement at *position* — O(Δ): each
        touched edge's net count change, zero changes left out."""
        if not 0 <= position < len(self.statements):
            raise IndexError(
                f"delete position {position} out of range for "
                f"{len(self.statements)} statements"
            )
        stmt = self.statements[position]
        changes: Dict[Tuple[str, str], int] = {}
        get = changes.get
        for edge in stmt.intra_edges:
            t = edge.as_tuple()
            changes[t] = get(t, 0) - 1
        for edge, n in self._base_incoming(position).items():
            changes[edge] = get(edge, 0) - n
        for reader in self._affected_readers(stmt.writes, position, inclusive=False):
            for edge, n in self._base_incoming(reader).items():
                changes[edge] = get(edge, 0) - n
            for edge, n in self._incoming(reader, skip=position).items():
                changes[edge] = get(edge, 0) + n
        return _strip_zeros(changes)

    def delta_insert(
        self, position: int, stmt: Statement
    ) -> Dict[Tuple[str, str], int]:
        """Edge delta of inserting *stmt* at *position* — O(Δ), in
        :meth:`delta_delete`'s form."""
        if not 0 <= position <= len(self.statements):
            raise IndexError(
                f"insert position {position} out of range for "
                f"{len(self.statements)} statements"
            )
        changes: Dict[Tuple[str, str], int] = {}
        get = changes.get
        for edge in stmt.intra_edges:
            t = edge.as_tuple()
            changes[t] = get(t, 0) + 1
        # the newcomer's own incoming links: last writers before the splice
        sig = stmt.ngram.signature
        linked: Set[int] = set()
        for var in stmt.reads:
            writer = self._last_writer_before(var, position)
            if writer is None or writer in linked:
                continue
            linked.add(writer)
            edge = (self.statements[writer].ngram.signature, sig)
            changes[edge] = get(edge, 0) + 1
        for reader in self._affected_readers(stmt.writes, position, inclusive=True):
            for edge, n in self._base_incoming(reader).items():
                changes[edge] = get(edge, 0) - n
            for edge, n in self._incoming(
                reader, inserted_at=position, inserted=stmt
            ).items():
                changes[edge] = get(edge, 0) + n
        return _strip_zeros(changes)


def _strip_zeros(changes: Dict[Tuple[str, str], int]) -> Dict[Tuple[str, str], int]:
    return {edge: change for edge, change in changes.items() if change}


def parse_script(source: str, lemmatized: bool = False, dialect=None) -> ScriptDAG:
    """Parse *source* into its DAG representation.

    Lemmatization (canonical renaming + normalization) is applied first
    unless the caller already did so; the DAG's ``normalized`` is the
    lemmatized text either way.  *dialect* supplies the loader entry
    points used for canonical renaming and statement protection; None
    means the pandas surface, the same as the registered pandas dialect.

    One ``ast.parse`` of *source* serves both steps.  Each statement is
    looked up by its lemmatized text in :data:`STATEMENT_CACHE`, and only
    a miss renames its node and builds it.
    """
    dialect = resolve_dialect(dialect)
    if lemmatized:
        try:
            tree = ast_parse(source)
        except SyntaxError as exc:
            raise ScriptParseError(str(exc)) from exc
        spans = statement_sources(source, tree.body)
        items = [(text, node, ()) for (text, _), node in zip(spans, tree.body)]
    else:
        items = lemmatize_statements(source, dialect)
    statements = []
    for index, (text, node, renames) in enumerate(items):
        key = (dialect.name, text)
        statement = STATEMENT_CACHE.get(key)
        if statement is None:
            if renames:
                rename_names(node, dict(renames))
            # an already-lemmatized text is as written, not as unparsed
            statement = Statement.from_ast(
                0, node, dialect, source=None if lemmatized else text
            )
            STATEMENT_CACHE[key] = statement
        statements.append(statement.at(index))
    normalized = source if lemmatized else "\n".join(text for text, _, _ in items)
    return ScriptDAG(statements, normalized)
