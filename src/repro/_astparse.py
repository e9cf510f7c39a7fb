"""``ast.parse`` behind one process-wide lock.

CPython 3.11 keeps the AST constructor's recursion-depth check in
interpreter-wide state.  When a thread switch happens mid-parse (a
garbage collection running a finalizer is enough), a parse on another
thread resets that state, and the first parse fails with
``SystemError: AST constructor recursion depth mismatch``.  The server
parses on two threads, admission on the event loop and jobs on the wave
thread, so every ``ast.parse`` in the package goes through
:func:`ast_parse`.  The lock is reentrant, so a finalizer that parses on
the thread already holding it cannot deadlock.
"""

from __future__ import annotations

import ast
import threading

__all__ = ["AST_PARSE_LOCK", "ast_parse"]

AST_PARSE_LOCK = threading.RLock()


def ast_parse(source: str, mode: str = "exec") -> ast.AST:
    """``ast.parse(source, mode=mode)``, one thread at a time."""
    with AST_PARSE_LOCK:
        return ast.parse(source, mode=mode)
