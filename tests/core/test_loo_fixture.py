"""Leave-one-out output fixture: the paper's protocol, replayed byte for byte.

The fixture holds 60 ``standardize()`` outcomes: the six competitions at
seed 1 with 2,000 rows each, the first five held-out scripts of each,
under τ_J and τ_M, with Table 2's ``(seq, K)`` from
``recommend_parameters``.  Each op records its output script, its
transformations, RE before and after (``float.hex``), ``repr`` of the
intent delta and the intent verdict.  A refactor that changes which
candidate wins fails here, even when the new winner is also correct.

The JSON was recorded before the dual-path toggles were deleted.  Never
regenerate it to make this test pass; regenerate it only for a change
that is meant to move results, and say so.  To record::

    PYTHONPATH=src python tests/core/test_loo_fixture.py --record
"""

import json
import os
import sys
import tempfile
from collections import Counter

import pytest

import repro.core.intent as intent_mod
from repro.core import LSConfig, LucidScript, TableJaccardIntent, recommend_parameters
from repro.core.intent import ACCURACY_CACHE, PreparedTableJaccard
from repro.corpus import (
    CorpusIndex,
    cached_index,
    clear_corpus_cache,
    corpus_cache_counters,
)
from repro.harness import make_intent
from repro.workloads import build_competition, competition_names

FIXTURE = os.path.join(os.path.dirname(__file__), "..", "fixtures", "loo_seed1.json")
SEED = 1
ROWS = 2000
HELD_OUT = 5
KINDS = ("jaccard", "model")


def _table2(corpus):
    """(seq, K) from Table 2 on the competition's full corpus."""
    vocabulary = cached_index(corpus.scripts).to_vocabulary()
    config = recommend_parameters(len(corpus.scripts) - 1, vocabulary.uniq_edges)
    return config.seq, config.beam_size


def _op(corpus, held_out, kind, shape, **config):
    user = corpus.scripts[held_out]
    rest = corpus.scripts[:held_out] + corpus.scripts[held_out + 1:]
    system = LucidScript(
        rest,
        data_dir=corpus.data_dir,
        intent=make_intent(kind, corpus),
        config=LSConfig(seq=shape[0], beam_size=shape[1], **config),
    )
    result = system.standardize(user)
    return {
        "competition": corpus.name,
        "held_out": held_out,
        "intent": kind,
        "seq_k": list(shape),
        "output_script": result.output_script,
        "transformations": [
            [t.kind, t.gram, t.signature, t.position, t.statement_source]
            for t in result.transformations
        ],
        "re_before": float.hex(result.re_before),
        "re_after": float.hex(result.re_after),
        "intent_delta": repr(result.intent_delta),
        "intent_satisfied": result.intent_satisfied,
    }


def run_ops(root, kinds=KINDS, **config):
    """The op records of *kinds* (all 60 by default), in (competition,
    intent, held-out) order; *config* adds ``LSConfig`` fields."""
    records = []
    for name in competition_names():
        corpus = build_competition(name, root, seed=SEED, n_rows=ROWS)
        shape = _table2(corpus)
        for kind in kinds:
            for held_out in range(HELD_OUT):
                records.append(_op(corpus, held_out, kind, shape, **config))
    return records


def test_replays_recorded_leave_one_out_outputs(tmp_path):
    with open(FIXTURE) as handle:
        recorded = json.load(handle)
    live_records = run_ops(str(tmp_path))
    assert len(recorded) == len(competition_names()) * len(KINDS) * HELD_OUT
    assert len(live_records) == len(recorded)
    for want, got in zip(recorded, live_records):
        where = f"{want['competition']}[{want['held_out']}] {want['intent']}"
        for key in sorted(set(want) | set(got)):
            assert got.get(key) == want.get(key), f"{where}: field {key!r} diverged"


def _recorded(kind):
    with open(FIXTURE) as handle:
        return [record for record in json.load(handle) if record["intent"] == kind]


@pytest.fixture(scope="module")
def audited_jaccard_ops(tmp_path_factory):
    """The 30 τ_J ops run once with ``audit=True``, for the two tests
    below.  Each op's corpus is derived from its competition's cached
    full index (``_table2`` cached it), and the index audit rebuilds the
    derived index from scratch and compares it before the search uses
    it.  Every delta score is recounted in full, every prepared Δ_J
    check (on the table the search's execution check produced) is
    recomputed by the naive ``table_jaccard`` over both tables, every
    minipandas kernel is shadowed by its row-at-a-time reference, and
    every incremental sandbox run is re-run cold, all compared
    exactly.

    Returns the op records, the corpus cache counters over the run, and
    the calls of ``CorpusIndex.verify``, of the prepared Δ_J and of the
    naive ``TableJaccardIntent.delta``.
    """
    calls = Counter()

    def spy(patch, owner, name):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        patch.setattr(owner, name, counted)

    with pytest.MonkeyPatch.context() as patch:
        spy(patch, CorpusIndex, "verify")
        spy(patch, PreparedTableJaccard, "_prepared_delta")
        spy(patch, TableJaccardIntent, "delta")
        clear_corpus_cache()
        before = corpus_cache_counters()
        root = str(tmp_path_factory.mktemp("loo"))
        records = run_ops(root, kinds=("jaccard",), audit=True)
        counters = corpus_cache_counters().delta(before)
    return records, counters, calls


def test_jaccard_ops_replay_with_every_derived_index_audited(audited_jaccard_ops):
    records, counters, calls = audited_jaccard_ops
    recorded = _recorded("jaccard")
    assert records == recorded
    assert counters.index_derivations == len(recorded)
    assert calls["verify"] == len(recorded)


def test_jaccard_ops_replay_with_every_intent_check_audited(audited_jaccard_ops):
    records, _, calls = audited_jaccard_ops
    assert records == _recorded("jaccard")
    assert calls["delta"] == calls["_prepared_delta"] > 0


def test_model_ops_replay_on_a_warm_accuracy_memo(tmp_path, monkeypatch):
    """The 30 τ_M ops, run three times in one process.  The first pass
    starts from an empty accuracy memo.  The second trains no downstream
    model at all, since every table it checks was scored by the first.
    The third runs with ``audit=True``, which checks every prepared
    delta against the naive ``delta``, which trains both tables afresh.
    All three replay the fixture."""
    recorded = _recorded("model")
    assert len(recorded) == len(competition_names()) * HELD_OUT
    root = str(tmp_path)
    ACCURACY_CACHE.clear()
    assert run_ops(root, kinds=("model",)) == recorded

    trained = []
    real = intent_mod.evaluate_downstream

    def counted(frame, target, **kwargs):
        trained.append(frame)
        return real(frame, target, **kwargs)

    monkeypatch.setattr(intent_mod, "evaluate_downstream", counted)
    assert run_ops(root, kinds=("model",)) == recorded
    assert trained == []
    monkeypatch.setattr(intent_mod, "evaluate_downstream", real)

    assert run_ops(root, kinds=("model",), audit=True) == recorded


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/core/test_loo_fixture.py --record")
    with tempfile.TemporaryDirectory() as root:
        records = run_ops(root)
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w") as handle:
        # one op per line, so a diff of the fixture shows which ops moved
        lines = ",\n".join(json.dumps(record, sort_keys=True) for record in records)
        handle.write(f"[\n{lines}\n]\n")
    print(f"recorded {len(records)} ops to {os.path.normpath(FIXTURE)}")
