"""The one error every audit raises.

Each fast layer keeps a naive oracle; when one disagrees with its fast
path it raises :class:`AuditMismatchError` naming its layer.  The class
lives in this leaf module so every layer can import it.  It derives
from none of the errors the search, intent and ml layers catch
(``ValueError``, ``TypeError``, ``ScriptError``,
``DownstreamEvaluationError``): a mismatch is an engine bug and must
never read as a skippable candidate.
"""

from __future__ import annotations

__all__ = ["AuditMismatchError"]


class AuditMismatchError(RuntimeError):
    """A fast path diverged from its naive oracle.

    ``layer`` is one of ``scoring``, ``intent``, ``index``,
    ``retrieval``, ``kernel``, ``sandbox``, ``server`` or ``dialect``;
    ``detail`` says what differed.
    """

    def __init__(self, layer: str, detail: str):
        super().__init__(layer, detail)
        self.layer = layer
        self.detail = detail

    def __str__(self) -> str:
        return f"{self.layer}: {self.detail}"
