"""Transformation configuration (Definition 3.4 and Section 5.2).

A transformation adds or deletes one atom (realized at statement
granularity so the result is always syntactically valid).  Configuring
deletes is straightforward — every unprotected existing statement is a
candidate.  Configuring adds uses the corpus: n-gram atoms are placed after
statements they were observed to follow (via the edge vocabulary), and
1-gram atoms are placed at the relative position they typically occupy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..lang.atoms import NGRAM, ONEGRAM
from ..lang.errors import ScriptError
from ..lang.parser import Statement
from ..lang.vocabulary import CorpusVocabulary

__all__ = ["Transformation", "apply_transformation", "enumerate_transformations"]

ADD = "add"
DELETE = "delete"


@dataclass(frozen=True)
class Transformation:
    """f(type, atom, edges, lineno) from Definition 3.4.

    Attributes
    ----------
    kind:
        ``"add"`` or ``"delete"``.
    gram:
        Which atom granularity produced this candidate.
    signature:
        The atom being added or deleted.
    position:
        Statement index: for deletes, the statement removed; for adds, the
        insertion index (the new statement lands *at* this index).
    statement_source:
        Renderable source line for adds (None for deletes).
    """

    kind: str
    gram: str
    signature: str
    position: int
    statement_source: Optional[str] = None

    def __post_init__(self):
        if self.kind not in (ADD, DELETE):
            raise ValueError(f"invalid transformation kind: {self.kind!r}")
        if self.kind == ADD and not self.statement_source:
            raise ValueError("add transformations require statement_source")
        if self.position < 0:
            raise ValueError(f"position must be >= 0, got {self.position}")

    def describe(self) -> str:
        if self.kind == DELETE:
            return f"delete line {self.position}: {self.signature}"
        return f"add at line {self.position}: {self.statement_source}"


def _renumber(statements: Sequence[Statement]) -> List[Statement]:
    return [stmt.at(index) for index, stmt in enumerate(statements)]


def apply_transformation(
    statements: Sequence[Statement],
    transformation: Transformation,
    added: Optional[Statement] = None,
) -> List[Statement]:
    """Return a new renumbered statement list with *transformation* applied.

    *added* is the already-parsed statement an add inserts.  Callers that
    parsed ``statement_source`` with their dialect pass it here, so the
    inserted statement keeps that dialect's ``protected`` flag; None
    parses ``statement_source`` against the pandas surface.
    """
    statements = list(statements)
    if transformation.kind == DELETE:
        if not 0 <= transformation.position < len(statements):
            raise IndexError(
                f"delete position {transformation.position} out of range "
                f"for {len(statements)} statements"
            )
        target = statements[transformation.position]
        if target.protected:
            raise ScriptError(f"cannot delete protected statement: {target.source!r}")
        del statements[transformation.position]
    else:
        if not 0 <= transformation.position <= len(statements):
            raise IndexError(
                f"insert position {transformation.position} out of range "
                f"for {len(statements)} statements"
            )
        if added is None:
            added = Statement.from_source(
                transformation.position, transformation.statement_source
            )
        statements.insert(transformation.position, added)
    return _renumber(statements)


def enumerate_transformations(
    statements: Sequence[Statement],
    vocabulary: CorpusVocabulary,
    frontier: int = 0,
    max_onegram_adds: int = 24,
    forbidden_adds: Optional[set] = None,
    forbidden_deletes: Optional[set] = None,
    operation_groups=None,
) -> List[Transformation]:
    """All legal next-step transformations.

    Monotonicity (Section 5.2 (3)) applies to insertions: they land at
    index ≥ *frontier*.  Deletes act anywhere — with early execution
    checking, removing an earlier statement can never resurrect a broken
    script (the failure mode monotonicity guards against), while
    restricting them would block removal of multi-line nonstandard
    snippets whose per-line scores are flat (Section 6.6).

    ``forbidden_adds``/``forbidden_deletes`` prevent oscillation: a
    sequence never re-adds a signature it deleted or deletes one it added.

    ``operation_groups`` (an :class:`~repro.core.grouping.OperationGroups`)
    restricts 1-gram adds to group representatives — the Section 6.5
    search-space reduction.
    """
    statements = list(statements)
    candidates: List[Transformation] = []
    present_ngrams = {s.ngram.signature for s in statements}
    forbidden_adds = forbidden_adds or set()
    forbidden_deletes = forbidden_deletes or set()
    tail_start = _split_tail_start(statements)

    # -- deletes -----------------------------------------------------------
    for stmt in statements:
        if stmt.protected or stmt.ngram.signature in forbidden_deletes:
            continue
        candidates.append(
            Transformation(
                kind=DELETE,
                gram=NGRAM,
                signature=stmt.ngram.signature,
                position=stmt.index,
            )
        )

    # -- n-gram adds: place after observed predecessors ---------------------
    seen_adds = set()
    for stmt in statements:
        insert_at = stmt.index + 1
        if insert_at < frontier:
            continue
        for successor_sig, _count in vocabulary.ngram_successors(stmt.ngram.signature):
            if successor_sig in present_ngrams or successor_sig in forbidden_adds:
                continue  # already in the script (or deleted by this sequence)
            key = (successor_sig, insert_at)
            if key in seen_adds:
                continue
            seen_adds.add(key)
            candidates.append(
                Transformation(
                    kind=ADD,
                    gram=NGRAM,
                    signature=successor_sig,
                    position=insert_at,
                    statement_source=successor_sig,
                )
            )

    # -- 1-gram adds: frequent invocations rendered via their templates -----
    present_onegrams = {
        a.signature for s in statements for a in s.onegrams
    }
    added = 0
    for signature, _count in vocabulary.onegram_counts.most_common():
        if added >= max_onegram_adds:
            break
        if signature in present_onegrams:
            continue
        if operation_groups is not None and not operation_groups.is_representative(
            signature
        ):
            continue
        template = vocabulary.render_statement(ONEGRAM, signature)
        if template is None or template in present_ngrams or template in forbidden_adds:
            continue
        position = _position_from_relative(
            vocabulary.relative_positions.get(template, 0.75), len(statements)
        )
        # data-prep steps belong before the conventional y/X split tail
        if position > tail_start:
            position = tail_start
        if position < frontier:
            position = frontier
        key = (template, position)
        if key in seen_adds:
            continue
        seen_adds.add(key)
        candidates.append(
            Transformation(
                kind=ADD,
                gram=ONEGRAM,
                signature=signature,
                position=position,
                statement_source=template,
            )
        )
        added += 1

    return candidates


def _split_tail_start(statements: Sequence[Statement]) -> int:
    """Index where the conventional ``y = ...`` / ``X = ...`` tail begins."""
    start = len(statements)
    for stmt in reversed(statements):
        if stmt.source.startswith(("y = ", "X = ")):
            start = stmt.index
        else:
            break
    return start


def _position_from_relative(relative: float, n_statements: int) -> int:
    """Map a corpus-observed relative position onto an insertion index."""
    relative = min(max(relative, 0.0), 1.0)
    return min(int(round(relative * n_statements)), n_statements)
