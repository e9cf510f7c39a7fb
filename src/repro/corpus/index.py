"""Incremental corpus index — the offline phase as a long-lived asset.

Two layers live here.  :class:`MembershipIndex` is the shared membership
engine: an ordered multiset of scripts (insertion order IS the corpus
order) resolved through a content-addressed :class:`ScriptStore`, with
``add_script``/``remove_script``/``refresh`` as pure deltas and a
directory manifest (per-file ``(mtime_ns, size, sha1)``) so a refresh
reparses only files whose bytes actually changed.  Derived state is
delegated to subclass hooks: :class:`CorpusIndex` maintains the exact
``CorpusVocabulary`` sufficient statistics, and
:class:`~repro.corpus.retrieval.RetrievalIndex` maintains LSH band
buckets and schema postings over the same membership contract.

:class:`CorpusIndex` maintains exactly the sufficient statistics that
:class:`~repro.lang.vocabulary.CorpusVocabulary` derives from a corpus —
edge/1-gram/n-gram counters, successor adjacency, statement templates,
relative positions, per-script n-gram frequency — under membership
changes, each costing O(changed script) instead of a full corpus
reparse.

The equivalence contract is *bit-identity*: after any interleaving of
mutations, :meth:`CorpusIndex.to_vocabulary` equals
``CorpusVocabulary.from_scripts(surviving scripts, in index order)`` on
every structure, including the float means of ``relative_positions``
(same values summed in the same order), the ε-smoothed Q(x), the
tie order of ``ngram_successors`` (Counter insertion order is replayed
from per-script successor lists), and the insertion order of the three
aggregate Counters (each member's first-seen keys are kept, so a
removal hands the keys it put first on to their next holder).
:meth:`verify` audits this the way ``LSConfig.audit`` audits the
search engines: rebuild from scratch, compare exactly, raise on any
divergence.

Order-sensitive derived structures (successors, templates, positions)
are rebuilt lazily, per dirty signature, from posting lists — a
membership change touching a script with *k* signatures dirties at most
*k* keys, and untouched keys keep their (still-identical) entries.
"""

from __future__ import annotations

import os
import sys
from collections import Counter
from dataclasses import dataclass, field, replace
from hashlib import sha1
from itertools import chain, filterfalse
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .._audit import AuditMismatchError
from .._floats import left_sum
from ..lang.errors import ScriptError
from ..lang.vocabulary import CorpusStats, CorpusVocabulary
from .store import ScriptRecord, ScriptStore, TemplateSlot

__all__ = [
    "CorpusIndex",
    "MembershipIndex",
    "RefreshReport",
    "read_corpus_dir",
]


@dataclass
class RefreshReport:
    """Outcome of one :meth:`MembershipIndex.refresh` directory scan."""

    scanned: int = 0
    added: int = 0
    changed: int = 0
    removed: int = 0
    unchanged_stat: int = 0  #: skipped on (mtime, size) alone — never read
    unchanged_hash: int = 0  #: re-read but byte-identical — never parsed
    failed: int = 0
    reparsed: int = 0  #: scripts that actually went through the parser
    failed_paths: List[str] = field(default_factory=list)
    #: files skipped because an earlier file has the same bytes
    duplicate_paths: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, int]:
        return {
            "scanned": self.scanned,
            "added": self.added,
            "changed": self.changed,
            "removed": self.removed,
            "unchanged_stat": self.unchanged_stat,
            "unchanged_hash": self.unchanged_hash,
            "failed": self.failed,
            "reparsed": self.reparsed,
        }


@dataclass
class _FileEntry:
    """Manifest row for one corpus file: staleness keys + its script."""

    script_id: Optional[int]  #: None when the file failed to load/parse
    raw_sha: str
    mtime_ns: int
    size: int


class MembershipIndex:
    """Ordered script membership over a content-addressed store.

    Subclasses override :meth:`_apply` / :meth:`_retract` to maintain
    their derived state as pure deltas; everything about *which* scripts
    are members — ids, ordering, refcounts, per-index strong record
    references, and the stat-scan refresh protocol — lives here once.
    """

    def __init__(
        self, store: Optional[ScriptStore] = None, dialect: Optional[str] = None
    ):
        if store is not None and dialect is not None and store.dialect != dialect:
            raise ValueError(
                f"store dialect {store.dialect!r} does not match "
                f"requested index dialect {dialect!r}"
            )
        self.store = (
            store if store is not None else ScriptStore(dialect=dialect or "pandas")
        )
        #: script_id -> content hash; insertion order IS the corpus order
        self._members: Dict[int, str] = {}
        self._next_id = 0
        #: per-index strong refs (the shared store may be shared/bounded)
        self._records: Dict[str, ScriptRecord] = {}
        self._refcounts: Counter = Counter()
        self.n_failures = 0

        # directory manifest (refresh protocol)
        self.corpus_dir: Optional[str] = None
        self._files: Dict[str, _FileEntry] = {}

    @property
    def dialect(self) -> str:
        """The API dialect every member script was parsed under."""
        return self.store.dialect

    # ------------------------------------------------------------ constructors
    @classmethod
    def from_scripts(
        cls,
        scripts: Iterable[str],
        store: Optional[ScriptStore] = None,
        dialect: Optional[str] = None,
    ) -> "MembershipIndex":
        """Index raw script sources, mirroring
        :meth:`CorpusVocabulary.from_scripts` semantics: unparseable
        scripts are skipped, an all-broken corpus raises ScriptError."""
        index = cls(store=store, dialect=dialect)
        for script in scripts:
            index.add_script(script)
        if not index._members:
            raise ScriptError(
                f"no parseable scripts in corpus ({index.n_failures} failed)"
            )
        return index

    # ------------------------------------------------------------------- sizes
    def __len__(self) -> int:
        return len(self._members)

    @property
    def n_scripts(self) -> int:
        return len(self._members)

    @property
    def n_unique_scripts(self) -> int:
        return len(self._records)

    def script_ids(self) -> List[int]:
        return list(self._members)

    def sources(self) -> List[str]:
        """Lemmatized member sources, in index (corpus) order."""
        return [self._records[h].source for h in self._members.values()]

    def content_hashes(self) -> List[str]:
        return list(self._members.values())

    # --------------------------------------------------------------- mutation
    def add_script(self, raw_source: str) -> Optional[int]:
        """Index one script; returns its id, or None if unparseable."""
        record = self.store.get_or_parse(raw_source)
        if record is None:
            self.n_failures += 1
            return None
        return self._admit(record)

    def add_record(self, record: ScriptRecord) -> int:
        """Admit a prebuilt record through the normal delta path.

        The retrieval layer assembles working corpora this way: top-k
        records (already resident in a store) become a
        :class:`CorpusIndex` without any source text round-trip.
        """
        return self._admit(record)

    def _admit(self, record: ScriptRecord, script_id: Optional[int] = None) -> int:
        """Apply one record's contributions under a new member id.

        ``script_id`` is only passed by the snapshot loader, which must
        preserve saved ids (the manifest references them); live adds
        always allocate the next id, keeping member order = id order.
        """
        if record.dialect != self.dialect:
            raise ValueError(
                f"cannot admit a {record.dialect!r}-dialect script into a "
                f"{self.dialect!r}-dialect index: corpora never mix dialects"
            )
        if script_id is None:
            script_id = self._next_id
        elif script_id in self._members:
            raise ValueError(f"duplicate script id: {script_id}")
        self._next_id = max(self._next_id, script_id + 1)
        self._members[script_id] = record.content_hash
        self._refcounts[record.content_hash] += 1
        self._records.setdefault(record.content_hash, record)
        self._apply(record, script_id)
        return script_id

    def remove_script(self, script_id: int) -> None:
        """Retract one member's contributions (O(changed script))."""
        try:
            content_hash = self._members.pop(script_id)
        except KeyError:
            raise KeyError(f"unknown script id: {script_id}") from None
        record = self._records[content_hash]
        self._refcounts[content_hash] -= 1
        if not self._refcounts[content_hash]:
            del self._refcounts[content_hash]
            del self._records[content_hash]
        self._retract(record, script_id)

    # ------------------------------------------------------------------- hooks
    def _apply(self, record: ScriptRecord, script_id: int) -> None:
        """Fold one new member's contributions into derived state."""

    def _retract(self, record: ScriptRecord, script_id: int) -> None:
        """Retract one removed member's contributions from derived state.

        Runs *after* the membership bookkeeping: when the removed member
        was the last reference to its content hash, the hash is already
        absent from ``_refcounts`` / ``_records``.
        """

    # ----------------------------------------------------------------- refresh
    def refresh(self, corpus_dir: Optional[str] = None) -> RefreshReport:
        """Reconcile the index with a corpus directory, O(changed files).

        The manifest keeps ``(mtime_ns, size, sha1)`` per file: a file
        whose stat signature matches is skipped without being read; one
        whose bytes hash to the recorded sha is touched without being
        parsed; only genuinely new or changed files reach the parser —
        and even those hit the content-addressed store when their
        *lemmatized* text is already known.

        One member per distinct file content, as :func:`read_corpus_dir`
        loads it: a file whose bytes equal an earlier file's (line
        endings aside), in scan order, is skipped and listed in
        ``duplicate_paths``.  The rule is re-applied on every scan, so
        deleting the first copy admits the next one, and copies admitted
        by an older snapshot are retracted.
        """
        directory = corpus_dir or self.corpus_dir
        if directory is None:
            raise ValueError("no corpus directory: pass corpus_dir or set one")
        self.corpus_dir = directory
        report = RefreshReport()
        parses_before = self.store.counters.parses
        # contents a member held before this scan: a skipped copy of one
        # is admitted once no earlier file has its bytes
        held = {e.raw_sha for e in self._files.values() if e.script_id is not None}
        first_copies: Set[str] = set()

        seen: Set[str] = set()
        for name in self._scan(directory):
            report.scanned += 1
            path = os.path.join(directory, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue  # raced deletion; handled as a removal below
            seen.add(name)
            entry = self._files.get(name)
            if entry is not None and (entry.mtime_ns, entry.size) == (
                stat.st_mtime_ns, stat.st_size
            ):
                raw_bytes = None
                report.unchanged_stat += 1
            else:
                try:
                    raw_bytes = _read_bytes(path)
                except OSError:
                    continue
                raw_sha = sha1(raw_bytes).hexdigest()
                if entry is not None and entry.raw_sha == raw_sha:
                    entry.mtime_ns = stat.st_mtime_ns
                    entry.size = stat.st_size
                    report.unchanged_hash += 1
                else:  # genuinely new or changed content
                    if entry is None:
                        report.added += 1
                    else:
                        report.changed += 1
                        if entry.script_id is not None:
                            self.remove_script(entry.script_id)
                    entry = self._files[name] = _FileEntry(
                        None, raw_sha, stat.st_mtime_ns, stat.st_size
                    )
                    held.add(raw_sha)  # new content: try to admit it
            if entry.raw_sha in first_copies:
                if entry.script_id is not None:
                    self.remove_script(entry.script_id)
                    entry.script_id = None
                report.duplicate_paths.append(name)
                continue
            first_copies.add(entry.raw_sha)
            if entry.script_id is not None or entry.raw_sha not in held:
                continue  # a member already, or a file that failed to load
            try:
                source = self._load_source(name, raw_bytes or _read_bytes(path))
            except (OSError, ValueError):
                source = None
            entry.script_id = None if source is None else self.add_script(source)
            if entry.script_id is None:
                report.failed += 1
                report.failed_paths.append(name)

        for name in list(self._files):
            if name not in seen:
                entry = self._files.pop(name)
                if entry.script_id is not None:
                    self.remove_script(entry.script_id)
                report.removed += 1

        report.reparsed = self.store.counters.parses - parses_before
        return report

    @staticmethod
    def _scan(directory: str) -> List[str]:
        """Corpus file names (relative), .py then .ipynb, each sorted —
        the order :func:`read_corpus_dir` and :meth:`refresh` read them in."""
        try:
            names = os.listdir(directory)
        except OSError as exc:
            raise ValueError(f"cannot scan corpus directory {directory!r}: {exc}")
        py = sorted(n for n in names if n.endswith(".py"))
        nb = sorted(n for n in names if n.endswith(".ipynb"))
        return py + nb

    @staticmethod
    def _load_source(name: str, raw_bytes: bytes) -> str:
        """Decode a corpus file into script text (flattening notebooks);
        raises ValueError saying why it cannot."""
        text = raw_bytes.decode("utf-8")
        if not name.endswith(".ipynb"):
            return text
        import json

        from ..lang.notebooks import script_from_notebook

        return script_from_notebook(json.loads(text))


#: CorpusIndex's posting-list attributes (signature -> {member id: entry})
_POSTINGS = ("_succ_members", "_template_members", "_position_members")


def _counter_copy(counts: Counter) -> Counter:
    """``Counter(counts)``, items in the same order, without the Python
    overhead of ``Counter.update`` (a few microseconds a call)."""
    copy = Counter.__new__(Counter)
    dict.update(copy, counts)
    return copy


def _contributions(record: ScriptRecord) -> Tuple[Counter, Counter, Counter]:
    """A record's counts, in :meth:`CorpusIndex._aggregates` order."""
    return (record.edge_counts, record.onegram_counts, record.ngram_counts)


def _new_keys(aggregates: Tuple, record: ScriptRecord) -> Tuple[Tuple, Tuple, Tuple]:
    """The keys of *record* that each of *aggregates* does not hold yet,
    in the record's order."""
    return tuple(
        tuple(filterfalse(aggregate.__contains__, counts))
        for aggregate, counts in zip(aggregates, _contributions(record))
    )


def _read_bytes(path: str) -> bytes:
    """A corpus file's bytes with line endings made ``\\n``, as text mode reads it."""
    with open(path, "rb") as handle:
        return handle.read().replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def read_corpus_dir(corpus_dir: str) -> List[str]:
    """Load a corpus directory: .py scripts plus flattened .ipynb notebooks.

    Files are listed and decoded as :meth:`MembershipIndex.refresh` reads
    them, in name order (corpus order is semantic: it drives Counter tie
    order and the corpus cache key), line endings read as ``\\n``.  A file
    whose bytes equal an earlier file's is skipped with a warning, since
    feeding the same script twice would double-count its edges in Q(x).  A file that cannot be read or
    decoded is skipped with a warning naming it, so one corrupt download
    cannot abort the load.  Raises ValueError when no script loads.
    """
    scripts: List[str] = []
    first_seen: Dict[bytes, str] = {}
    for name in MembershipIndex._scan(corpus_dir):
        path = os.path.join(corpus_dir, name)
        kind = "notebook " if name.endswith(".ipynb") else ""
        try:
            raw_bytes = _read_bytes(path)
            original = first_seen.setdefault(raw_bytes, path)
            if original == path:
                scripts.append(MembershipIndex._load_source(name, raw_bytes))
                continue
            problem = f"byte-identical to {original} (would double-count in Q(x))"
        except (OSError, ValueError) as exc:
            problem = str(exc)
        print(f"warning: skipping {kind}{path}: {problem}", file=sys.stderr)
    if not scripts:
        raise ValueError(f"no .py or .ipynb scripts found in {corpus_dir!r}")
    return scripts


class CorpusIndex(MembershipIndex):
    """Exact, incrementally maintained corpus sufficient statistics."""

    def __init__(
        self, store: Optional[ScriptStore] = None, dialect: Optional[str] = None
    ):
        super().__init__(store=store, dialect=dialect)

        # aggregate counters (zero entries pruned on removal)
        self.edge_counts: Counter = Counter()
        self.onegram_counts: Counter = Counter()
        self.ngram_counts: Counter = Counter()
        self._total_statements = 0

        #: member id -> the keys it put first into each aggregate, in its
        #: record's order.  Aggregate order is the concatenation of these
        #: over members in corpus order, as a from-scratch build inserts
        #: keys, and ``most_common()`` breaks count ties by it.  Only a
        #: removal needs it, so it is built by :meth:`_first_seen_keys`
        #: at the first removal or copy (None until then); an index that
        #: is only added to, such as a retrieval working corpus, never
        #: pays for it.
        self._first_seen: Optional[Dict[int, Tuple[Tuple, Tuple, Tuple]]] = None

        # posting lists: signature -> {member id: that member's entry for
        # it}, in corpus order (ids are admitted in increasing order)
        self._succ_members: Dict[str, Dict[int, List[str]]] = {}
        self._template_members: Dict[str, Dict[int, TemplateSlot]] = {}
        self._position_members: Dict[str, Dict[int, List[float]]] = {}
        #: the posting dicts may be shared with a copy (see _copy): a
        #: removal replaces one instead of editing it, and an add takes
        #: private copies of them all first
        self._postings_shared = False

        # lazily rebuilt derived structures + their dirty sets
        self._successors: Dict[str, Counter] = {}
        self._templates: Dict[str, str] = {}
        self._positions: Dict[str, float] = {}
        self._dirty_succ: Set[str] = set()
        self._dirty_templates: Set[str] = set()
        self._dirty_positions: Set[str] = set()

    # ------------------------------------------------------------------- hooks
    def remove_script(self, script_id: int) -> None:
        """Retract one member; the first removal builds ``_first_seen``."""
        self._first_seen_keys()
        super().remove_script(script_id)

    def _apply(self, record: ScriptRecord, script_id: int) -> None:
        if self._first_seen is not None:
            self._first_seen[script_id] = _new_keys(self._aggregates(), record)
        self.edge_counts.update(record.edge_counts)
        self.onegram_counts.update(record.onegram_counts)
        self.ngram_counts.update(record.ngram_counts)
        self._total_statements += record.n_statements

        if self._postings_shared:
            for name in _POSTINGS:
                postings = getattr(self, name)
                setattr(self, name, {sig: dict(ids) for sig, ids in postings.items()})
            self._postings_shared = False
        for postings, dirty, entries in self._signature_state(record):
            for sig, entry in entries.items():
                postings.setdefault(sig, {})[script_id] = entry
            dirty.update(entries)

    def _retract(self, record: ScriptRecord, script_id: int) -> None:
        self._subtract(self.edge_counts, record.edge_counts)
        self._subtract(self.onegram_counts, record.onegram_counts)
        self._subtract(self.ngram_counts, record.ngram_counts)
        self._total_statements -= record.n_statements
        first_seen = self._first_seen.pop(script_id)
        for which, (aggregate, keys) in enumerate(zip(self._aggregates(), first_seen)):
            moved = [key for key in keys if key in aggregate]
            if moved:
                self._reseat(which, moved, script_id)

        for postings, dirty, entries in self._signature_state(record):
            for sig in entries:
                members = postings[sig]
                if len(members) == 1:
                    del postings[sig]
                    continue
                if self._postings_shared:
                    members = postings[sig] = dict(members)
                del members[script_id]
            dirty.update(entries)

    def _aggregates(self) -> Tuple[Counter, Counter, Counter]:
        return (self.edge_counts, self.onegram_counts, self.ngram_counts)

    def _first_seen_keys(self) -> Dict[int, Tuple[Tuple, Tuple, Tuple]]:
        """``_first_seen``, built by one walk over the members the first
        time it is needed."""
        if self._first_seen is None:
            seen: Tuple[Set, Set, Set] = (set(), set(), set())
            self._first_seen = {}
            for script_id, content_hash in self._members.items():
                record = self._records[content_hash]
                self._first_seen[script_id] = _new_keys(seen, record)
                for keys, counts in zip(seen, _contributions(record)):
                    keys.update(counts)
        return self._first_seen

    def _signature_state(self, record: ScriptRecord) -> Tuple[Tuple, Tuple, Tuple]:
        """(postings, dirty set, the record's entries) of each derived
        structure: successors, templates, positions."""
        return (
            (self._succ_members, self._dirty_succ, record.successors_by_source),
            (self._template_members, self._dirty_templates, record.template_slots),
            (self._position_members, self._dirty_positions, record.position_lists),
        )

    def _reseat(self, which: int, moved: List, removed_id: int) -> None:
        """Restore first-seen order in aggregate *which* after a removal.

        *moved* are keys the removed member put first that other members
        still hold.  Each now belongs to the first later member holding
        it (no earlier one does), and the aggregate is re-ordered to the
        concatenation of every member's first-seen keys.  Only members
        up to the last new owner are visited; counts are not touched.
        """
        pending = set(moved)
        for script_id, content_hash in self._members.items():
            if script_id < removed_id:
                continue
            counts = _contributions(self._records[content_hash])[which]
            taken = pending.intersection(counts)
            if not taken:
                continue
            pending -= taken
            slots = list(self._first_seen[script_id])
            owned = set(slots[which]) | taken
            slots[which] = tuple(key for key in counts if key in owned)
            self._first_seen[script_id] = tuple(slots)
            if not pending:
                break
        aggregate = self._aggregates()[which]
        reordered = {
            key: aggregate[key]
            for first_seen in self._first_seen.values()
            for key in first_seen[which]
        }
        aggregate.clear()
        aggregate.update(reordered)

    @staticmethod
    def _subtract(aggregate: Counter, delta: Counter) -> None:
        for key, count in delta.items():
            remaining = aggregate[key] - count
            if remaining:
                aggregate[key] = remaining
            else:
                del aggregate[key]

    def _copy(self) -> "CorpusIndex":
        """An independent copy: a mutation of either index leaves the
        other as it was.  It shares the store, the (immutable) records,
        the derived entries (materializing replaces them rather than
        editing them) and the posting dicts, which both indexes then
        treat as shared."""
        clone = CorpusIndex(store=self.store)
        clone._members = dict(self._members)
        clone._next_id = self._next_id
        clone._records = dict(self._records)
        clone._refcounts = _counter_copy(self._refcounts)
        clone.n_failures = self.n_failures
        clone.corpus_dir = self.corpus_dir
        clone._files = {name: replace(entry) for name, entry in self._files.items()}
        clone.edge_counts = _counter_copy(self.edge_counts)
        clone.onegram_counts = _counter_copy(self.onegram_counts)
        clone.ngram_counts = _counter_copy(self.ngram_counts)
        clone._total_statements = self._total_statements
        clone._first_seen = dict(self._first_seen_keys())
        for name in _POSTINGS:
            setattr(clone, name, dict(getattr(self, name)))
        clone._postings_shared = self._postings_shared = True
        clone._successors = dict(self._successors)
        clone._templates = dict(self._templates)
        clone._positions = dict(self._positions)
        clone._dirty_succ = set(self._dirty_succ)
        clone._dirty_templates = set(self._dirty_templates)
        clone._dirty_positions = set(self._dirty_positions)
        return clone

    # ------------------------------------------------------ derived structures
    def _materialize(self) -> None:
        """Rebuild dirty derived entries, replaying corpus order exactly."""
        for sig in self._dirty_succ:
            members = self._succ_members.get(sig)
            if not members:
                self._successors.pop(sig, None)
                continue
            # Counter counts an iterable in first-seen order, as a
            # from-scratch build does
            self._successors[sig] = Counter(chain.from_iterable(members.values()))
        self._dirty_succ.clear()

        for sig in self._dirty_templates:
            members = self._template_members.get(sig)
            if not members:
                self._templates.pop(sig, None)
                continue
            # CorpusVocabulary's preference rule resolves to: the first
            # df-assignment occurrence in corpus order if one exists,
            # otherwise the very first occurrence
            template: Optional[str] = None
            for first_df, _ in members.values():
                if first_df is not None:
                    template = first_df
                    break
            if template is None:
                template = next(iter(members.values()))[1]
            self._templates[sig] = template
        self._dirty_templates.clear()

        for sig in self._dirty_positions:
            members = self._position_members.get(sig)
            if not members:
                self._positions.pop(sig, None)
                continue
            values = list(chain.from_iterable(members.values()))
            self._positions[sig] = left_sum(values) / len(values)
        self._dirty_positions.clear()

    # ------------------------------------------------------------------ export
    def to_vocabulary(self) -> CorpusVocabulary:
        """A :class:`CorpusVocabulary` bit-identical to a from-scratch
        ``from_scripts`` build over the surviving scripts (index order).

        The returned object owns fresh copies of every structure, so
        callers may hold it across further index mutations.
        """
        if not self._members:
            raise ValueError("cannot build a vocabulary from an empty corpus")
        self._materialize()
        n = len(self._members)
        vocabulary = CorpusVocabulary.__new__(CorpusVocabulary)
        vocabulary._dags = []
        vocabulary.edge_counts = _counter_copy(self.edge_counts)
        vocabulary.onegram_counts = _counter_copy(self.onegram_counts)
        vocabulary.ngram_counts = _counter_copy(self.ngram_counts)
        from collections import defaultdict

        vocabulary.successors = defaultdict(
            Counter, {sig: _counter_copy(c) for sig, c in self._successors.items()}
        )
        vocabulary.onegram_templates = dict(self._templates)
        vocabulary.relative_positions = dict(self._positions)
        vocabulary._total_edges = sum(self.edge_counts.values())
        vocabulary.n_scripts = n
        vocabulary._total_lines = self._total_statements
        vocabulary._script_counts = {
            sig: len(self._position_members[sig]) for sig in self.ngram_counts
        }
        return vocabulary

    def stats(self) -> CorpusStats:
        n = len(self._members)
        return CorpusStats(
            n_scripts=n,
            avg_code_lines=self._total_statements / n if n else 0.0,
            uniq_onegrams=len(self.onegram_counts),
            uniq_ngrams=len(self.ngram_counts),
            uniq_edges=len(self.edge_counts),
        )

    # ------------------------------------------------------------------- audit
    def verify(self) -> None:
        """Audit mode: rebuild from scratch and compare bit-for-bit.

        Any divergence is an engine bug and raises
        :class:`~repro.core.AuditMismatchError` (layer ``index``) naming
        the first structure that differs.  O(full corpus reparse) — a debugging tool, not a
        production path.
        """
        if not self._members:
            return
        fresh = CorpusVocabulary.from_scripts(
            self.sources(), dialect=self.store._lang_dialect
        )
        mine = self.to_vocabulary()
        # insertion order is most_common()'s tie order (1-gram adds,
        # operation groups): compare the items in order, not the multisets
        for what in ("edge_counts", "onegram_counts", "ngram_counts"):
            self._compare(
                what,
                list(getattr(mine, what).items()),
                list(getattr(fresh, what).items()),
            )
        self._compare("total_edges", mine.total_edges, fresh.total_edges)
        self._compare("onegram_templates", mine.onegram_templates, fresh.onegram_templates)
        self._compare(
            "relative_positions", mine.relative_positions, fresh.relative_positions
        )
        # successor tie order feeds GetSteps enumeration: compare the
        # exact Counter item order, not just the multiset
        mine_succ = {s: list(c.items()) for s, c in mine.successors.items()}
        fresh_succ = {s: list(c.items()) for s, c in fresh.successors.items()}
        self._compare("successors", mine_succ, fresh_succ)
        self._compare("stats", mine.stats(), fresh.stats())
        for sig in fresh.ngram_counts:
            if mine.statement_frequency(sig) != fresh.statement_frequency(sig):
                raise AuditMismatchError(
                    "index",
                    f"statement_frequency({sig!r}): "
                    f"{mine.statement_frequency(sig)!r} != "
                    f"{fresh.statement_frequency(sig)!r}"
                )
        # Q(x) spot equivalence follows from edge_counts/total, but keep
        # the smoothing mass in the contract explicitly
        self._compare("epsilon", mine.epsilon, fresh.epsilon)

    @staticmethod
    def _compare(what: str, mine, fresh) -> None:
        if mine != fresh:
            raise AuditMismatchError(
                "index",
                f"incremental index diverged from from-scratch rebuild on {what}"
            )
