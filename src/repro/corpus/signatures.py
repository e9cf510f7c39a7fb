"""Cheap per-script retrieval signatures (minhash, vocabulary, schema).

The retrieval layer (:mod:`repro.corpus.retrieval`) needs to compare a
query against a pool of thousands of scripts without touching their ASTs.
Each script is therefore summarized once — at
:meth:`~repro.corpus.store.ScriptStore` parse time — into a
:class:`ScriptSignature` built entirely from the lemmatized canonical
text and the script's 1-gram atoms:

* **minhash** over shingles of the lemmatized statement stream (each
  statement line, each window of :data:`SHINGLE_WINDOW` consecutive
  lines, and each 1-gram atom signature), permuted by
  :data:`NUM_PERM` fixed universal-hash functions.  Banded into
  :data:`LSH_BANDS` bands of ``NUM_PERM // LSH_BANDS`` rows for
  locality-sensitive bucketing;
* a **vocabulary fingerprint** — the set of 1-gram atom signatures —
  whose exact Jaccard overlap refines ranking among candidates;
* **schema tokens** — the string constants the script touches (column
  names, CSV paths), the dataset-overlap feature that also lets a bare
  *table* act as a query;
* a **phase histogram** over the canonical preparation-phase order of
  :data:`repro.workloads.schemas.GROUPS` (impute → clean → filter →
  feature → encode → split), comparing the *shape* of two preparations.

Everything here is a pure function of the lemmatized source, so
signatures are content-addressed alongside their records: equal scripts
have equal signatures, and a signature persisted in a snapshot is
bit-identical to one recomputed from the source.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from hashlib import blake2b
from math import isfinite, sqrt
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from ..workloads.schemas import GROUPS

__all__ = [
    "LSH_BANDS",
    "LSH_ROWS",
    "NUM_PERM",
    "N_PHASES",
    "SHINGLE_WINDOW",
    "ScriptSignature",
    "band_keys",
    "bands_collide",
    "minhash_signature",
    "phase_norm",
    "script_shingles",
    "signature_from_source",
    "signature_similarity",
    "signature_from_dict",
    "signature_to_dict",
    "table_signature",
]

#: Number of minhash permutations per signature.
NUM_PERM = 128
#: LSH bands; ``NUM_PERM // LSH_BANDS`` rows each.  With 32 bands of 4
#: rows, two scripts with shingle Jaccard *s* share at least one band
#: with probability 1 - (1 - s^4)^32 — ≈ 0.87 at s = 0.5 and ≈ 1 at
#: s = 0.7, while near-boilerplate overlap (s ≈ 0.2) collides only ≈ 5%
#: of the time, keeping candidate sets small on self-similar pools.
#: Same-dataset scripts reach each other through the schema postings
#: regardless, so sharp banding costs no dataset-mate recall.
LSH_BANDS = 32
LSH_ROWS = NUM_PERM // LSH_BANDS
#: Statement-window width for positional shingles.
SHINGLE_WINDOW = 3

_MERSENNE = (1 << 61) - 1

#: Fixed universal-hash parameters: the permutation family is part of the
#: signature format (a different seed would change every persisted
#: minhash), so it is drawn once from a named constant seed.
_PERM_SEED = 0x4C53  # "LS"
_rng = random.Random(_PERM_SEED)
_PERMS: Tuple[Tuple[int, int], ...] = tuple(
    (_rng.randrange(1, _MERSENNE), _rng.randrange(0, _MERSENNE))
    for _ in range(NUM_PERM)
)
del _rng

# The permutations as uint64 columns for the limb arithmetic of
# _minhash_values: a split into 32-bit halves, a_hi < 2**29.
_M64 = np.uint64(_MERSENNE)
_A = np.array([a for a, _ in _PERMS], dtype=np.uint64)[:, None]
_A_LO = _A & np.uint64(0xFFFFFFFF)
_A_HI = _A >> np.uint64(32)
_B = np.array([b for _, b in _PERMS], dtype=np.uint64)[:, None]

#: Preparation phases in canonical order (derived from workloads.schemas).
_PHASES: Tuple[str, ...] = tuple(sorted(GROUPS, key=GROUPS.__getitem__))
#: Length of every phase histogram.
N_PHASES = len(_PHASES)

#: Operation markers assigning a lemmatized statement to a phase.  The
#: first phase (in GROUPS order) with a matching marker wins.
_PHASE_MARKERS: Dict[str, Tuple[str, ...]] = {
    "impute": ("fillna(", "interpolate("),
    "clean": (
        "dropna(",
        "drop_duplicates(",
        ".replace(",
        ".drop(",
        ".rename(",
        ".astype(",
        ".strip(",
    ),
    "filter": (".query(",),
    "feature": (".apply(", ".map(", "cut(", "qcut(", ".assign(", ".rolling("),
    "encode": ("get_dummies(", "factorize(", "LabelEncoder"),
    "split": ("train_test_split(",),
}

_STRING_TOKEN = re.compile(r"'([^']+)'")
_COMPARATOR = re.compile(r"[<>]=?|[!=]=")


@dataclass(frozen=True)
class ScriptSignature:
    """The cheap retrieval summary of one script (or one query table)."""

    content_hash: str
    #: NUM_PERM minhash values; empty for table queries (no statements).
    minhash: Tuple[int, ...]
    #: 1-gram atom signatures appearing in the script.
    vocab: frozenset
    #: string constants touched (column names, CSV paths).
    schema: frozenset
    #: normalized phase histogram, in GROUPS order.
    groups: Tuple[float, ...]


def _statement_phase(line: str) -> str:
    """The preparation phase of one lemmatized statement ('' if none)."""
    for phase in _PHASES:
        if any(marker in line for marker in _PHASE_MARKERS.get(phase, ())):
            return phase
    # subscript masks (`df = df[df['Age'] < 18]`) are the filter idiom
    if "[" in line and _COMPARATOR.search(line):
        return "filter"
    if line.startswith(("y = ", "X = ")):
        return "split"
    return ""


def script_shingles(source: str, onegrams: Iterable[str]) -> Set[str]:
    """The shingle set a script's minhash summarizes.

    Three domains, kept disjoint by prefix: statement lines (``s1``),
    windows of :data:`SHINGLE_WINDOW` consecutive statements (``s3`` —
    the positional structure), and 1-gram atom signatures (``a1`` — so
    operation-level overlap registers even when no whole statement is
    shared).
    """
    lines = [line for line in source.splitlines() if line.strip()]
    shingles = {f"s1\x00{line}" for line in lines}
    if len(lines) >= SHINGLE_WINDOW:
        for start in range(len(lines) - SHINGLE_WINDOW + 1):
            shingles.add("s3\x00" + "\x00".join(lines[start:start + SHINGLE_WINDOW]))
    elif lines:
        shingles.add("s3\x00" + "\x00".join(lines))
    shingles.update(f"a1\x00{sig}" for sig in onegrams)
    return shingles


def _mod_mersenne(x: np.ndarray) -> np.ndarray:
    """``x mod M`` for uint64 *x*, M = 2**61 - 1.

    Since 2**61 ≡ 1, folding the bits above 61 onto the low 61 leaves at
    most M + 7, which one conditional subtraction brings into [0, M).
    """
    x = (x & _M64) + (x >> np.uint64(61))
    x[x >= _M64] -= _M64
    return x


def _minhash_values(hashes: np.ndarray) -> np.ndarray:
    """``min((a*h + b) % M for h in hashes)`` for every permutation (a, b).

    All NUM_PERM × len(hashes) products at once in uint64, exactly.
    With h reduced mod M and both factors split into 32-bit limbs (the
    high limbs below 2**29), a·h = a_hi·h_hi·2**64 + mid·2**32 +
    a_lo·h_lo where mid = a_hi·h_lo + a_lo·h_hi < 2**62.  Since
    2**61 ≡ 1, 2**64 ≡ 8 and mid·2**32 ≡ (mid >> 29) + ((mid mod 2**29)
    << 32).  Of the four terms summed below, the first and third are at
    most 2**61 - 2**32, the second is below 2**33 and the fourth below
    M, so with b (below M) the sum stays below 2**63 and nothing wraps.
    """
    h = _mod_mersenne(hashes)
    h_lo = h & np.uint64(0xFFFFFFFF)
    h_hi = h >> np.uint64(32)
    mid = _A_HI * h_lo + _A_LO * h_hi
    product = (
        ((_A_HI * h_hi) << np.uint64(3))
        + (mid >> np.uint64(29))
        + ((mid & np.uint64((1 << 29) - 1)) << np.uint64(32))
        + _mod_mersenne(_A_LO * h_lo)
    )
    return _mod_mersenne(product + _B).min(axis=1)


def minhash_signature(shingles: Set[str]) -> Tuple[int, ...]:
    """NUM_PERM-permutation minhash of a shingle set (empty set → ``()``).

    Each shingle hashes to the big-endian 64-bit blake2b digest *h*, and
    permutation (a, b) keeps ``min((a*h + b) % (2**61 - 1))``.
    """
    if not shingles:
        return ()
    digests = b"".join(blake2b(s.encode(), digest_size=8).digest() for s in shingles)
    hashes = np.frombuffer(digests, dtype=">u8").astype(np.uint64)
    return tuple(_minhash_values(hashes).tolist())


def band_keys(minhash: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """The LSH bucket keys of one minhash: ``(band, row values...)``."""
    if not minhash:
        return []
    return [
        (band,) + tuple(minhash[band * LSH_ROWS:(band + 1) * LSH_ROWS])
        for band in range(LSH_BANDS)
    ]


def _phase_histogram(lines: Sequence[str]) -> Tuple[float, ...]:
    counts = {phase: 0 for phase in _PHASES}
    total = 0
    for line in lines:
        phase = _statement_phase(line)
        if phase:
            counts[phase] += 1
            total += 1
    if not total:
        return tuple(0.0 for _ in _PHASES)
    return tuple(counts[phase] / total for phase in _PHASES)


def signature_from_source(
    content_hash: str, source: str, onegrams: Iterable[str]
) -> ScriptSignature:
    """Compute the signature of one lemmatized script.

    Pure in ``(content_hash, source, onegrams)`` — recomputing from a
    persisted record yields a bit-identical signature.
    """
    onegram_list = list(onegrams)
    lines = [line for line in source.splitlines() if line.strip()]
    schema = frozenset(
        token for sig in onegram_list for token in _STRING_TOKEN.findall(sig)
    )
    return ScriptSignature(
        content_hash=content_hash,
        minhash=minhash_signature(script_shingles(source, onegram_list)),
        vocab=frozenset(onegram_list),
        schema=schema,
        groups=_phase_histogram(lines),
    )


def table_signature(columns: Iterable[str]) -> ScriptSignature:
    """A query signature for a bare table: schema tokens only.

    A table has no statements, so its minhash/vocab are empty and
    similarity reduces to schema overlap — "scripts that touch my
    columns".
    """
    return ScriptSignature(
        content_hash="",
        minhash=(),
        vocab=frozenset(),
        schema=frozenset(str(c) for c in columns),
        groups=tuple(0.0 for _ in _PHASES),
    )


def _jaccard(a: frozenset, b: frozenset) -> float:
    if not a or not b:
        return 0.0
    intersection = len(a & b)
    if not intersection:
        return 0.0
    return intersection / (len(a) + len(b) - intersection)


def _agreement(a: Tuple[int, ...], b: Tuple[int, ...]) -> float:
    if not a or not b:
        return 0.0
    return sum(1 for x, y in zip(a, b) if x == y) / NUM_PERM


def bands_collide(a: Tuple[int, ...], b: Tuple[int, ...]) -> bool:
    """Whether two minhashes share at least one full LSH band.

    This is *exactly* the event that lands two scripts in a common band
    bucket of the :class:`~repro.corpus.retrieval.RetrievalIndex` — it
    is the retrievability predicate, and :func:`signature_similarity`
    gates on it so that positive similarity implies retrievability.
    """
    if not a or not b:
        return False
    return any(
        a[start:start + LSH_ROWS] == b[start:start + LSH_ROWS]
        for start in range(0, NUM_PERM, LSH_ROWS)
    )


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    # An explicit left-to-right sum: Python 3.12 made sum() of floats
    # compensated, which would make scores depend on the interpreter.
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def phase_norm(groups: Sequence[float]) -> float:
    """The Euclidean norm of a phase histogram, as :func:`_cosine` takes it."""
    return sqrt(_dot(groups, groups))


def _cosine(a: Tuple[float, ...], b: Tuple[float, ...]) -> float:
    dot = _dot(a, b)
    if not dot:
        return 0.0
    return dot / (phase_norm(a) * phase_norm(b))


def signature_similarity(a: ScriptSignature, b: ScriptSignature) -> float:
    """Similarity in [0, 1]; the exact comparator LSH accelerates.

    Gated on the two retrievable events: a pair sharing neither a full
    LSH band (:func:`bands_collide`) nor a schema token scores exactly
    0.  The gate makes retrieval *exact by construction* — every
    positively-scored script lives in the query's band buckets or
    schema postings, so the candidate set the
    :class:`~repro.corpus.retrieval.RetrievalIndex` scores contains the
    complete positive-similarity set and its top-k equals the
    brute-force top-k (the invariant the retrieval audit checks).
    Vocabulary overlap and the phase histogram only *refine* ranking
    among reachable candidates.
    """
    s = _jaccard(a.schema, b.schema)
    if s == 0.0 and not bands_collide(a.minhash, b.minhash):
        return 0.0
    m = _agreement(a.minhash, b.minhash)
    v = _jaccard(a.vocab, b.vocab)
    g = _cosine(a.groups, b.groups)
    return 0.55 * m + 0.20 * v + 0.15 * s + 0.10 * g


def signature_to_dict(signature: ScriptSignature) -> dict:
    """JSON-serializable form (sets stored sorted for stable snapshots)."""
    return {
        "minhash": list(signature.minhash),
        "vocab": sorted(signature.vocab),
        "schema": sorted(signature.schema),
        "groups": list(signature.groups),
    }


def signature_from_dict(content_hash: str, payload: dict) -> ScriptSignature:
    """Inverse of :func:`signature_to_dict`, rejecting damaged payloads.

    A snapshot's signature is checked field by field — minhash empty or
    exactly NUM_PERM ints in [0, 2**61 - 1), one finite number per
    phase, vocab and schema lists of strings — and a damaged one raises
    ValueError naming the script and the field, instead of loading and
    silently mis-scoring.
    """

    def damaged(field: str, expected: str) -> ValueError:
        return ValueError(
            f"corrupt signature for script {content_hash}: "
            f"{field!r} must be {expected}"
        )

    minhash = payload.get("minhash")
    if not isinstance(minhash, list) or (
        minhash
        and (
            len(minhash) != NUM_PERM
            or not all(type(v) is int and 0 <= v < _MERSENNE for v in minhash)
        )
    ):
        raise damaged("minhash", f"empty or {NUM_PERM} ints in [0, 2**61 - 1)")
    groups = payload.get("groups")
    if not isinstance(groups, list) or len(groups) != N_PHASES or not all(
        type(v) in (int, float) and isfinite(v) for v in groups
    ):
        raise damaged("groups", f"{N_PHASES} finite numbers, one per phase")
    for field in ("vocab", "schema"):
        tokens = payload.get(field)
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise damaged(field, "a list of strings")
    return ScriptSignature(
        content_hash=content_hash,
        minhash=tuple(minhash),
        vocab=frozenset(payload["vocab"]),
        schema=frozenset(payload["schema"]),
        groups=tuple(float(v) for v in groups),
    )
