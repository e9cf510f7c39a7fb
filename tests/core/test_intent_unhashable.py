"""Intent checks on candidate outputs the downstream model cannot use.

A candidate table may hold unhashable cells (``str.split`` fills a column
with lists) or a target no model here supports.  Under τ_M such a
candidate fails its constraint with Δ_M = 100; under τ_J unhashable cells
are compared by repr key.  Neither may abort the search.
"""

import random

import pytest

from repro.core import LSConfig, LucidScript, ModelPerformanceIntent, TableJaccardIntent
from repro.core.intent import PreparedModelPerformance, table_jaccard
from repro.minipandas import NA, DataFrame
from repro.ml import DownstreamEvaluationError
from repro.workloads import build_competition

from .test_intent_engine import MODES, search_measure


def labelled_frame(label):
    n = len(label)
    return DataFrame({
        "x": [float((i * 5) % 7) for i in range(n)],
        "z": [i % 3 for i in range(n)],
        "label": label,
    })


ORIGINAL = labelled_frame([i % 2 for i in range(60)])


def model_intent(task="classification"):
    return ModelPerformanceIntent(target="label", tau=1.0, task=task)


def prepared(task="classification"):
    state = model_intent(task).prepare(ORIGINAL)
    assert isinstance(state, PreparedModelPerformance)
    return state


class TestModelPerformanceCandidates:
    def test_multiclass_target_under_logistic_model(self):
        # a script that fills the missing labels with -1
        candidate = labelled_frame([[0, 1, -1][i % 3] for i in range(60)])
        assert prepared().check(candidate) == (100.0, False)

    def test_mixed_string_int_target_when_task_inferred(self):
        candidate = labelled_frame([[0, 1, 2, "unknown"][i % 4] for i in range(60)])
        assert prepared(task=None).check(candidate) == (100.0, False)

    def test_unhashable_feature_cells_are_dropped_by_cardinality(self):
        candidate = ORIGINAL.copy()
        candidate["parts"] = [["name", str(i)] for i in range(60)]
        assert prepared().check(candidate) == (0.0, True)

    def test_unhashable_feature_cells_are_encoded_when_few(self):
        candidate = ORIGINAL.copy()
        candidate["parts"] = [[["a"], ["b"], None][i % 3] for i in range(60)]
        assert prepared().check(candidate) == model_intent().check(ORIGINAL, candidate)

    def test_unusable_original_is_an_error(self):
        original = labelled_frame([[0, 1, -1][i % 3] for i in range(60)])
        with pytest.raises(DownstreamEvaluationError):
            model_intent().prepare(original).check(ORIGINAL)


# ------------------------------------------------------------ table jaccard
def frame_with_unhashable(rng, n_rows):
    pools = [
        lambda: rng.choice([[1], [1, 2], ["a"], []]),
        lambda: rng.choice([{"k": 1}, {"k": 2}, {}]),
        lambda: rng.choice(["x", "__NA__", 3, 3.0, True]),
        lambda: (rng.randrange(3), [rng.randrange(2)]),
    ]
    data = {}
    for c in range(rng.randrange(1, 5)):
        pool = rng.choice(pools)
        data[f"c{c}"] = [NA if rng.random() < 0.2 else pool() for _ in range(n_rows)]
    return DataFrame(data)


def mutate(rng, frame):
    data = {name: frame[name].tolist() for name in frame.columns}
    name = rng.choice(list(data))
    kind = rng.randrange(4)
    if kind == 0:
        data[name] = [rng.choice([[9], {"k": 9}, NA, "x"]) for _ in data[name]]
    elif kind == 1:
        data[f"new_{name}"] = data.pop(name)
    elif kind == 2:
        data = {key: values[: len(values) // 2] for key, values in data.items()}
    else:
        data["plain"] = [rng.randrange(3) for _ in range(len(frame))]
    return DataFrame(data)


class TestTableJaccardUnhashableCells:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("seed", range(4))
    def test_prepared_matches_naive(self, mode, seed):
        intent = search_measure(mode, tau=0.5)
        if intent is None:
            return
        rng = random.Random(seed * 31 + len(mode))
        original = frame_with_unhashable(rng, n_rows=rng.randrange(0, 9))
        state = intent.prepare(original)
        for _ in range(20):
            candidate = mutate(rng, original) if rng.random() < 0.7 else original.copy()
            assert state.delta(candidate) == table_jaccard(original, candidate, mode=mode)
        # a hashable candidate against the same prepared original
        plain = DataFrame({"c0": [1, 2]})
        assert state.delta(plain) == table_jaccard(original, plain, mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_lists_compare_by_repr(self, mode):
        a = DataFrame({"a": [[1], [2], NA]})
        b = DataFrame({"a": [[1], [3], None]})
        # [1] and NA are shared, [2] and [3] are not, in every naive mode
        assert table_jaccard(a, b, mode=mode) == 0.5
        assert TableJaccardIntent().prepare(a).delta(b) == 0.5

    def test_hashable_cells_keep_their_values(self):
        # 1 == 1.0 == True stay one element, as in an all-hashable table
        a = DataFrame({"a": [1, [0]], "b": [1.0, True]})
        b = DataFrame({"a": [True, [0]], "b": [1, 1]})
        assert table_jaccard(a, b, mode="values") == 1.0


# ---------------------------------------------------------- full reproduction
@pytest.fixture(scope="module")
def split_names_corpus(tmp_path_factory):
    """Titanic scripts that each add a column of lists after reading."""
    corpus = build_competition(
        "titanic", str(tmp_path_factory.mktemp("split")), seed=3, n_scripts=12
    )
    split = "train['NameParts'] = train['Name'].str.split(' ')"
    scripts = []
    for script in corpus.scripts:
        lines = []
        for line in script.splitlines():
            lines.append(line)
            if "read_csv" in line:
                lines.append(split)
        scripts.append("\n".join(lines) + "\n")
    assert all(split in script for script in scripts)
    return corpus, scripts


@pytest.mark.parametrize(
    "intent",
    [
        lambda corpus: ModelPerformanceIntent(
            target=corpus.target, tau=100.0, task=corpus.task
        ),
        lambda corpus: TableJaccardIntent(),
    ],
    ids=["tau_m", "tau_j_values"],
)
def test_search_over_list_columns_completes(split_names_corpus, intent):
    corpus, scripts = split_names_corpus
    system = LucidScript(
        scripts[1:],
        data_dir=corpus.data_dir,
        intent=intent(corpus),
        config=LSConfig(seq=4, beam_size=2),
    )
    result = system.standardize(scripts[0])
    assert result.intent_satisfied
    assert result.re_after <= result.re_before
