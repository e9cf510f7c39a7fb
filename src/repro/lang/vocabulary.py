"""Offline search-space curation (Section 5.1).

Builds, from a script corpus S, the atom vocabulary V_A, the edge
vocabulary V_E' with occurrence counts, the corpus step distribution Q(x),
and the auxiliary structures the online search needs: n-gram successor
adjacency (where may an atom be appended?) and renderable statement
templates for every atom.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .._floats import left_sum
from .atoms import NGRAM, ONEGRAM
from .errors import ScriptError
from .parser import ScriptDAG, parse_script

__all__ = ["CorpusVocabulary", "CorpusStats", "smoothing_mass"]

EdgeKey = Tuple[str, str]


def smoothing_mass(total_edges: int) -> float:
    """ε, the Q mass of an edge a corpus of *total_edges* edges never
    saw: half a count."""
    return 0.5 / max(total_edges, 1)


@dataclass(frozen=True)
class CorpusStats:
    """Table 3-style corpus statistics."""

    n_scripts: int
    avg_code_lines: float
    uniq_onegrams: int
    uniq_ngrams: int
    uniq_edges: int

    def as_dict(self) -> dict:
        return {
            "Scripts": self.n_scripts,
            "Avg # code lines": round(self.avg_code_lines, 1),
            "Uniq. 1-grams": self.uniq_onegrams,
            "Uniq. n-grams": self.uniq_ngrams,
            "Uniq. edges": self.uniq_edges,
        }


class CorpusVocabulary:
    """V_A, V_E', and Q(x) computed over a corpus of scripts."""

    def __init__(self, dags: Sequence[ScriptDAG]):
        if not dags:
            raise ValueError("cannot build a vocabulary from an empty corpus")
        self._dags: List[ScriptDAG] = list(dags)

        self.edge_counts: Counter = Counter()
        self.onegram_counts: Counter = Counter()
        self.ngram_counts: Counter = Counter()
        #: n-gram signature -> Counter of n-gram signatures observed to follow it
        self.successors: Dict[str, Counter] = defaultdict(Counter)
        #: 1-gram signature -> representative full-statement source
        self.onegram_templates: Dict[str, str] = {}
        #: n-gram signature -> mean relative position (0=start .. 1=end)
        self.relative_positions: Dict[str, float] = {}
        self.n_scripts = len(self._dags)
        #: statements over all scripts, the numerator of the mean length
        self._total_lines = 0
        #: n-gram signature -> number of scripts holding it, counted at
        #: the first statement_frequency() call
        self._script_counts: Optional[Dict[str, int]] = None

        position_sums: Dict[str, List[float]] = defaultdict(list)
        for dag in self._dags:
            self._total_lines += len(dag)
            self.edge_counts.update(dag.edge_counter())
            self.onegram_counts.update(dag.onegram_counter())
            self.ngram_counts.update(dag.ngram_counter())
            n = max(len(dag) - 1, 1)
            for stmt in dag.statements:
                position_sums[stmt.ngram.signature].append(stmt.index / n)
                for atom in stmt.onegrams:
                    # prefer a df-assignment statement as the template so a
                    # 1-gram add renders as a standalone, executable line
                    current = self.onegram_templates.get(atom.signature)
                    if current is None or (
                        not current.startswith("df = ") and stmt.source.startswith("df = ")
                    ):
                        self.onegram_templates[atom.signature] = stmt.source
            for edge in dag.inter_edges():
                self.successors[edge.source][edge.target] += 1
        self.relative_positions = {
            sig: left_sum(vals) / len(vals) for sig, vals in position_sums.items()
        }
        self._total_edges = sum(self.edge_counts.values())

    # ----------------------------------------------------------- constructors
    @classmethod
    def from_scripts(cls, scripts: Iterable[str], dialect=None) -> "CorpusVocabulary":
        """Parse raw script sources (lemmatizing each) into a vocabulary.

        Scripts that fail to parse are skipped — real-world corpora contain
        broken notebooks — but an all-broken corpus raises ScriptError.
        *dialect* (None = pandas) drives lemmatization's call surface.
        """
        dags, failures = [], 0
        for script in scripts:
            try:
                dags.append(parse_script(script, dialect=dialect))
            except ScriptError:
                failures += 1
        if not dags:
            raise ScriptError(f"no parseable scripts in corpus ({failures} failed)")
        return cls(dags)

    # ------------------------------------------------------------------ sizes
    @property
    def total_edges(self) -> int:
        return self._total_edges

    @property
    def uniq_edges(self) -> int:
        return len(self.edge_counts)

    def stats(self) -> CorpusStats:
        return CorpusStats(
            n_scripts=self.n_scripts,
            avg_code_lines=self._total_lines / self.n_scripts,
            uniq_onegrams=len(self.onegram_counts),
            uniq_ngrams=len(self.ngram_counts),
            uniq_edges=len(self.edge_counts),
        )

    # ------------------------------------------------------------ distribution
    @property
    def epsilon(self) -> float:
        """Smoothing mass for out-of-vocabulary edges (half a count)."""
        return smoothing_mass(self._total_edges)

    # ------------------------------------------------------------- step lookup
    def statement_frequency(self, signature: str) -> float:
        """Fraction of corpus scripts whose DAG contains this n-gram atom."""
        if self._script_counts is None:
            # one pass over the corpus, not one per signature asked (two
            # threads racing here count alike)
            script_counts: Counter = Counter()
            for dag in self._dags:
                script_counts.update(dag.ngram_counter().keys())
            self._script_counts = script_counts
        return self._script_counts.get(signature, 0) / self.n_scripts

    def ngram_successors(self, signature: str) -> List[Tuple[str, int]]:
        """Statements observed to directly follow *signature*, most common first."""
        return self.successors.get(signature, Counter()).most_common()

    def render_statement(self, gram: str, signature: str) -> Optional[str]:
        """Return source text that realizes an atom as a full statement."""
        if gram == NGRAM:
            return signature if signature in self.ngram_counts else None
        if gram == ONEGRAM:
            return self.onegram_templates.get(signature)
        raise ValueError(f"invalid gram kind: {gram!r}")
