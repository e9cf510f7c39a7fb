"""The process-wide downstream-accuracy memo of the prepared Δ_M check.

``ACCURACY_CACHE`` maps ``(table fingerprint, target, task, model,
random_state)`` to the accuracy ``evaluate_downstream`` returned for that
table.  Only ``PreparedModelPerformance`` reads or writes it.  The
contract under test: every prepared delta stays bit-identical to the
naive ``delta``, every memo value equals a fresh training, the naive
measures never consult the memo (so the intent audit catches a wrong
entry), failures are never stored, and nothing but floats outlives
a check.
"""

import gc
import sys
import threading
import weakref

import pytest

import repro.core.intent as intent_mod
from repro.core import AuditMismatchError, LSConfig, LucidScript, StandardizationError
from repro.core.intent import (
    ACCURACY_CACHE,
    ACCURACY_CACHE_LIMIT,
    ModelPerformanceIntent,
    table_fingerprint,
)
from repro.minipandas import DataFrame
from repro.ml import DownstreamEvaluationError, evaluate_downstream
from repro.sandbox import run_script
from repro.workloads import build_competition, competition_names


@pytest.fixture(autouse=True)
def empty_memo():
    ACCURACY_CACHE.clear()
    yield
    ACCURACY_CACHE.resize(ACCURACY_CACHE_LIMIT)
    ACCURACY_CACHE.clear()


@pytest.fixture()
def trainings(monkeypatch):
    """The fingerprint of every table the intent layer trains on."""
    calls = []
    real = intent_mod.evaluate_downstream

    def counted(frame, target, **kwargs):
        calls.append(table_fingerprint(frame))
        return real(frame, target, **kwargs)

    monkeypatch.setattr(intent_mod, "evaluate_downstream", counted)
    return calls


def frame(shift=0, rows=24):
    return DataFrame({
        "f1": [(i * 7 + shift) % 5 for i in range(rows)],
        "f2": [(i * 3) % 4 + 0.5 for i in range(rows)],
        "label": [i % 2 for i in range(rows)],
        "other": [(i // 3 + shift) % 2 for i in range(rows)],
    })


def key_of(table, intent):
    return (
        table_fingerprint(table),
        intent.target,
        intent.task,
        intent.model,
        intent.random_state,
    )


def fresh_accuracy(table, intent):
    return evaluate_downstream(
        table,
        intent.target,
        task=intent.task,
        model=intent.model,
        random_state=intent.random_state,
    ).accuracy


# -------------------------------------------------------------------- oracle
@pytest.fixture(scope="module")
def seed1_outputs(tmp_path_factory):
    """Per seed-1 competition: its τ_M intent and the cold outputs of its
    scripts (500 sampled rows), in corpus order."""
    root = str(tmp_path_factory.mktemp("seed1"))
    out = []
    for name in competition_names():
        corpus = build_competition(name, root, seed=1, n_rows=2000)
        intent = ModelPerformanceIntent(
            target=corpus.target, tau=1.0, task=corpus.task
        )
        tables = []
        for script in corpus.scripts:
            result = run_script(script, data_dir=corpus.data_dir, sample_rows=500)
            if result.ok and result.output is not None:
                tables.append(result.output)
        out.append((name, intent, tables))
    return out


def _usable(intent, tables):
    """The first table the downstream model can train on."""
    for table in tables:
        try:
            intent.accuracy(table)
        except DownstreamEvaluationError:
            continue
        return table
    raise AssertionError("no usable original")


class TestOracle:
    def test_warm_deltas_and_entries_match_fresh_trainings(
        self, seed1_outputs, monkeypatch
    ):
        tables_by_fp = {}
        for name, intent, tables in seed1_outputs:
            original = _usable(intent, tables)
            prepared = intent.prepare(original)
            for table in tables:  # warm the memo
                prepared.delta(table)
            calls = []
            real = intent_mod.evaluate_downstream

            def counted(table, *args, **kwargs):
                calls.append(table)
                return real(table, *args, **kwargs)

            monkeypatch.setattr(intent_mod, "evaluate_downstream", counted)
            warm = intent.prepare(original)  # a new original side too
            deltas = [warm.delta(table) for table in tables]
            monkeypatch.setattr(intent_mod, "evaluate_downstream", real)
            # a warm check trains only a table the model cannot use
            for table in calls:
                with pytest.raises(DownstreamEvaluationError):
                    intent.accuracy(table)
            for table, delta in zip(tables, deltas):
                assert float.hex(delta) == float.hex(
                    intent.delta(original, table)
                ), name
            tables_by_fp.update((table_fingerprint(t), t) for t in tables)

        keys = ACCURACY_CACHE.keys()
        assert len(keys) >= len(seed1_outputs)
        # tables recur: fewer entries than checked tables
        assert len(keys) < sum(len(tables) for _, _, tables in seed1_outputs)
        for fp, target, task, model, random_state in keys:
            fresh = evaluate_downstream(
                tables_by_fp[fp], target, task=task, model=model,
                random_state=random_state,
            ).accuracy
            stored = ACCURACY_CACHE.peek((fp, target, task, model, random_state))
            assert float.hex(stored) == float.hex(fresh)


# ----------------------------------------------------------------------- key
class TestKey:
    def test_each_evaluation_argument_is_in_the_key(self, trainings):
        original, candidate = frame(), frame(shift=1)
        base = dict(target="label", tau=5.0, task=None, model="logistic",
                    random_state=0)
        ModelPerformanceIntent(**base).prepare(original).delta(candidate)
        assert len(trainings) == 2
        for change in (
            {"target": "other"},
            {"task": "classification"},
            {"model": "tree"},
            {"random_state": 1},
        ):
            trainings.clear()
            intent = ModelPerformanceIntent(**{**base, **change})
            assert intent.prepare(original).delta(candidate) == intent.delta(
                original, candidate
            )
            assert len(trainings) == 4, change  # 2 memo misses + delta's 2

    def test_tau_is_not_in_the_key(self, trainings):
        original, candidate = frame(), frame(shift=1)
        ModelPerformanceIntent(target="label", tau=5.0).prepare(original).delta(
            candidate
        )
        trainings.clear()
        for tau in (0.0, 1.0, 50.0):
            intent = ModelPerformanceIntent(target="label", tau=tau)
            delta, ok = intent.prepare(original).check(candidate)
            assert ok == (delta <= tau)
        assert trainings == []

    def test_equal_content_shares_an_entry(self, trainings):
        intent = ModelPerformanceIntent(target="label", tau=5.0)
        intent.prepare(frame()).delta(frame(shift=1))
        trainings.clear()
        # a different original side, the same candidate content
        intent.prepare(frame(shift=2)).delta(frame(shift=1).copy())
        assert trainings == [table_fingerprint(frame(shift=2))]


# --------------------------------------------------------- oracles stay naive
class TestOraclesIgnoreTheMemo:
    @pytest.fixture()
    def planted(self):
        """A memo that holds a wrong accuracy for the candidate."""
        intent = ModelPerformanceIntent(target="label", tau=5.0)
        original, candidate = frame(), frame(shift=1)
        truth = {
            "accuracy": fresh_accuracy(candidate, intent),
            "delta": intent.delta(original, candidate),
        }
        wrong = 0.123 if truth["accuracy"] != 0.123 else 0.456
        ACCURACY_CACHE[key_of(candidate, intent)] = wrong
        return intent, original, candidate, truth

    def test_naive_measures_train_afresh(self, planted):
        intent, original, candidate, truth = planted
        assert intent.accuracy(candidate) == truth["accuracy"]
        assert fresh_accuracy(candidate, intent) == truth["accuracy"]
        assert intent.delta(original, candidate) == truth["delta"]
        assert intent.check(original, candidate) == (
            truth["delta"], truth["delta"] <= intent.tau
        )

    def test_the_audit_catches_a_wrong_entry(self, planted):
        intent, original, candidate, truth = planted
        assert intent.prepare(original).delta(candidate) != truth["delta"]
        with pytest.raises(AuditMismatchError, match="^intent: "):
            intent.prepare(original, verify=True).delta(candidate)

    def test_the_audit_catches_a_wrong_original_entry(self):
        intent = ModelPerformanceIntent(target="label", tau=5.0)
        original, candidate = frame(), frame(shift=1)
        ACCURACY_CACHE[key_of(original, intent)] = 0.123
        with pytest.raises(AuditMismatchError, match="^intent: "):
            intent.prepare(original, verify=True).delta(candidate)


# ----------------------------------------------- failures, memory and threads
class TestFailures:
    def test_a_failing_candidate_is_not_stored(self, trainings):
        intent = ModelPerformanceIntent(target="label", tau=5.0)
        prepared = intent.prepare(frame())
        unusable = DataFrame({"f1": [1, 2, 3]})  # no target column
        assert prepared.delta(unusable) == 100.0
        assert prepared.delta(unusable) == 100.0
        assert trainings.count(table_fingerprint(unusable)) == 2
        assert list(ACCURACY_CACHE.keys()) == [key_of(frame(), intent)]

    def test_an_unusable_original_raises_on_every_check(self, trainings):
        # five classes, and the logistic model is binary
        intent = ModelPerformanceIntent(target="f1", task="classification", tau=5.0)
        original = frame()
        messages = []
        for _ in range(2):
            with pytest.raises(DownstreamEvaluationError) as info:
                intent.prepare(original).delta(frame(shift=1))
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert trainings == [table_fingerprint(original)] * 2
        assert len(ACCURACY_CACHE) == 0

    def test_an_unusable_original_fails_every_search_alike(
        self, trainings, diabetes_corpus, diabetes_dir, alex_script
    ):
        messages = []
        for _ in range(2):
            system = LucidScript(
                diabetes_corpus,
                data_dir=diabetes_dir,
                intent=ModelPerformanceIntent(
                    target="Pregnancies", task="classification", tau=5.0
                ),
                config=LSConfig(seq=4, beam_size=2, sample_rows=150),
            )
            with pytest.raises(StandardizationError) as info:
                system.standardize(alex_script)
            messages.append(str(info.value))
        assert "intent cannot evaluate the input script's output" in messages[0]
        assert messages[0] == messages[1]
        assert len(trainings) == 2  # the original, once per search
        assert len(ACCURACY_CACHE) == 0


class TestBoundsAndMemory:
    def _search(self, corpus, data_dir, script):
        system = LucidScript(
            corpus,
            data_dir=data_dir,
            intent=ModelPerformanceIntent(target="Outcome", tau=5.0),
            config=LSConfig(seq=4, beam_size=2, sample_rows=150),
        )
        result = system.standardize(script)
        return (
            result.output_script,
            float.hex(result.re_after),
            repr(result.intent_delta),
            result.intent_satisfied,
        )

    def test_results_do_not_depend_on_the_bound(
        self, diabetes_corpus, diabetes_dir, alex_script
    ):
        wanted = self._search(diabetes_corpus, diabetes_dir, alex_script)
        ACCURACY_CACHE.clear()
        ACCURACY_CACHE.resize(1)
        assert self._search(diabetes_corpus, diabetes_dir, alex_script) == wanted
        assert self._search(diabetes_corpus, diabetes_dir, alex_script) == wanted
        assert len(ACCURACY_CACHE) == 1

    def test_checked_frames_are_not_kept_alive(self):
        intent = ModelPerformanceIntent(target="label", tau=5.0)
        prepared = intent.prepare(frame())
        usable, unusable = frame(shift=1), DataFrame({"f1": [1, 2, 3]})
        refs = [weakref.ref(usable), weakref.ref(unusable)]
        assert prepared.delta(usable) < 100.0
        assert prepared.delta(unusable) == 100.0
        del usable, unusable
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert all(
            isinstance(ACCURACY_CACHE.peek(key), float) for key in ACCURACY_CACHE.keys()
        )

    def test_threads_sharing_tables_agree(self):
        intent = ModelPerformanceIntent(target="label", tau=5.0)
        originals = [frame(shift=s) for s in range(3)]
        candidates = [frame(shift=s) for s in range(8)]
        wanted = {
            (o, c): intent.delta(originals[o], candidates[c])
            for o in range(3)
            for c in range(8)
        }
        errors, got = [], []
        interval = sys.getswitchinterval()

        def work(offset):
            try:
                for step in range(len(wanted)):
                    o, c = sorted(wanted)[(5 * step + offset) % len(wanted)]
                    delta = intent.prepare(originals[o]).delta(candidates[c])
                    got.append(((o, c), delta))
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        ACCURACY_CACHE.resize(4)  # constant eviction
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(n,)) for n in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(got) == 4 * len(wanted)
        for pair, delta in got:
            assert float.hex(delta) == float.hex(wanted[pair]), pair
