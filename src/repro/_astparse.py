"""``ast.parse`` behind one process-wide lock.

CPython 3.11 keeps the AST constructor's recursion-depth check in
interpreter-wide state.  When a thread switch happens mid-parse (a
garbage collection running a finalizer is enough), a parse on another
thread resets that state, and the first parse fails with
``SystemError: AST constructor recursion depth mismatch``.  The server
parses on two threads, admission on the event loop and jobs on the job
thread, so every ``ast.parse`` in the package goes through
:func:`ast_parse`.  The lock is reentrant, so a finalizer that parses on
the thread already holding it cannot deadlock.

Script text that cannot be encoded as UTF-8 (a lone surrogate such as
``"\\udc80"``, which a JSON request can carry) makes ``ast.parse`` and
``compile`` raise ``UnicodeEncodeError``.  :func:`ast_parse` and the
sandbox's ``compile`` sites report it as the :class:`SyntaxError` of
:func:`not_utf8`, so such a script fails to parse like any other.
"""

from __future__ import annotations

import ast
import threading

__all__ = ["AST_PARSE_LOCK", "ast_parse", "not_utf8"]

AST_PARSE_LOCK = threading.RLock()


def ast_parse(source: str, mode: str = "exec") -> ast.AST:
    """``ast.parse(source, mode=mode)``, one thread at a time."""
    with AST_PARSE_LOCK:
        try:
            return ast.parse(source, mode=mode)
        except UnicodeEncodeError as exc:
            raise not_utf8(source, exc) from exc


def not_utf8(source: str, exc: UnicodeEncodeError) -> SyntaxError:
    """The SyntaxError for *source*, whose text *exc* failed to encode.

    The message escapes the offending characters, so printing it cannot
    fail the same way.
    """
    lineno = source.count("\n", 0, exc.start) + 1
    offset = exc.start - source.rfind("\n", 0, exc.start)
    return SyntaxError(
        f"text is not valid UTF-8 ({exc.reason}: {source[exc.start:exc.end]!a})",
        ("<script>", lineno, offset, None),
    )
