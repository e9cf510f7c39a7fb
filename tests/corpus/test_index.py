"""Bit-identity tests for the incremental corpus index.

The contract under test: after ANY interleaving of add_script /
remove_script / refresh, ``CorpusIndex.to_vocabulary()`` equals
``CorpusVocabulary.from_scripts`` over the surviving scripts in index
order — exactly, including successor tie order and the float means of
``relative_positions``.
"""

import random

import pytest

from repro.core import AuditMismatchError
from repro.corpus import (
    CorpusIndex,
    index_from_dict,
    index_to_dict,
)
from repro.lang import CorpusVocabulary, ScriptError, lemmatize

#: A deliberately overlapping script pool: shared statements (so counts
#: and successor targets collide across scripts), lemma-equivalent pairs
#: (train vs df), df- and non-df template candidates, and distinct
#: orderings of the same steps (so successor tie order matters).
SCRIPT_POOL = [
    "import pandas as pd\n"
    "df = pd.read_csv('diabetes.csv')\n"
    "df = df.fillna(df.mean())\n"
    "df = df[df['SkinThickness'] < 80]\n"
    "df = pd.get_dummies(df)",
    "import pandas as pd\n"
    "train = pd.read_csv('diabetes.csv')\n"
    "train = train.fillna(train.mean())\n"
    "train = train[train['SkinThickness'] < 80]\n"
    "train = pd.get_dummies(train)",
    "import pandas as pd\n"
    "df = pd.read_csv('diabetes.csv')\n"
    "df = df.fillna(df.mean())\n"
    "df = pd.get_dummies(df)",
    "import pandas as pd\n"
    "df = pd.read_csv('diabetes.csv')\n"
    "df = pd.get_dummies(df)\n"
    "df = df.fillna(df.mean())",
    "import pandas as pd\n"
    "df = pd.read_csv('train.csv')\n"
    "df = df.dropna()\n"
    "df = df[df['Age'] > 18]",
    "import pandas as pd\n"
    "df = pd.read_csv('train.csv')\n"
    "out = df.dropna()",
    "import pandas as pd\n"
    "df = pd.read_csv('diabetes.csv')\n"
    "df = df.fillna(df.median())\n"
    "df = df[df['Glucose'] > 100]\n"
    "df = df.dropna()",
]


def assert_bit_identical(mine: CorpusVocabulary, fresh: CorpusVocabulary) -> None:
    """Compare every structure a vocabulary exposes, order included."""
    # Counter insertion order is most_common()'s tie order
    assert list(mine.edge_counts.items()) == list(fresh.edge_counts.items())
    assert list(mine.onegram_counts.items()) == list(fresh.onegram_counts.items())
    assert list(mine.ngram_counts.items()) == list(fresh.ngram_counts.items())
    assert mine.total_edges == fresh.total_edges
    assert mine.onegram_templates == fresh.onegram_templates
    # float means must be the exact same floats, not approximately equal
    assert mine.relative_positions == fresh.relative_positions
    # successor tie order feeds GetSteps enumeration: item order matters
    assert {s: list(c.items()) for s, c in mine.successors.items()} == {
        s: list(c.items()) for s, c in fresh.successors.items()
    }
    assert mine.stats() == fresh.stats()
    assert mine.epsilon == fresh.epsilon
    for sig in fresh.ngram_counts:
        assert mine.statement_frequency(sig) == fresh.statement_frequency(sig)


class TestFromScripts:
    def test_matches_cold_build(self):
        index = CorpusIndex.from_scripts(SCRIPT_POOL)
        assert_bit_identical(index.to_vocabulary(), CorpusVocabulary.from_scripts(SCRIPT_POOL))

    def test_verify_passes(self):
        CorpusIndex.from_scripts(SCRIPT_POOL).verify()

    def test_deduplicates_content(self):
        index = CorpusIndex.from_scripts(SCRIPT_POOL)
        # scripts 0 and 1 are lemma-equivalent: one record, two members
        assert index.n_scripts == len(SCRIPT_POOL)
        assert index.n_unique_scripts == len(SCRIPT_POOL) - 1
        assert index.store.counters.parses == len(SCRIPT_POOL) - 1

    def test_broken_scripts_skipped_like_from_scripts(self):
        scripts = SCRIPT_POOL[:3] + ["not ( python"]
        index = CorpusIndex.from_scripts(scripts)
        assert index.n_scripts == 3
        assert index.n_failures == 1
        assert_bit_identical(
            index.to_vocabulary(), CorpusVocabulary.from_scripts(scripts)
        )

    def test_all_broken_raises(self):
        with pytest.raises(ScriptError):
            CorpusIndex.from_scripts(["not ( python", "also ) bad"])

    def test_empty_vocabulary_refused(self):
        with pytest.raises(ValueError):
            CorpusIndex().to_vocabulary()


class TestDeltas:
    def test_remove_matches_cold_build_on_survivors(self):
        index = CorpusIndex.from_scripts(SCRIPT_POOL)
        ids = index.script_ids()
        index.remove_script(ids[1])
        index.remove_script(ids[4])
        survivors = [s for i, s in enumerate(SCRIPT_POOL) if i not in (1, 4)]
        assert_bit_identical(
            index.to_vocabulary(), CorpusVocabulary.from_scripts(survivors)
        )

    def test_add_after_remove(self):
        index = CorpusIndex.from_scripts(SCRIPT_POOL[:4])
        index.remove_script(index.script_ids()[0])
        index.add_script(SCRIPT_POOL[5])
        survivors = SCRIPT_POOL[1:4] + [SCRIPT_POOL[5]]
        assert_bit_identical(
            index.to_vocabulary(), CorpusVocabulary.from_scripts(survivors)
        )

    def test_remove_unknown_id_raises(self):
        index = CorpusIndex.from_scripts(SCRIPT_POOL[:2])
        with pytest.raises(KeyError):
            index.remove_script(999)

    def test_counters_prune_to_zero(self):
        index = CorpusIndex.from_scripts(SCRIPT_POOL[:2])
        for script_id in index.script_ids():
            index.remove_script(script_id)
        assert not index.edge_counts
        assert not index.onegram_counts
        assert not index.ngram_counts
        assert index.stats().n_scripts == 0

    def test_verify_catches_tampering(self):
        index = CorpusIndex.from_scripts(SCRIPT_POOL)
        sig = next(iter(index.ngram_counts))
        index.ngram_counts[sig] += 1
        with pytest.raises(AuditMismatchError) as caught:
            index.verify()
        assert caught.value.layer == "index"


class TestRandomizedInterleavings:
    """Satellite: the property test.  Any interleaving of add / remove /
    refresh leaves the index bit-identical to a cold build over the
    surviving scripts — including after a persistence round-trip."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_add_remove_interleaving(self, seed):
        rng = random.Random(seed)
        index = CorpusIndex()
        alive = {}  # script_id -> raw script
        for _ in range(40):
            if alive and rng.random() < 0.4:
                script_id = rng.choice(sorted(alive))
                index.remove_script(script_id)
                del alive[script_id]
            else:
                script = rng.choice(SCRIPT_POOL)
                script_id = index.add_script(script)
                alive[script_id] = script
        if not alive:
            index.add_script(SCRIPT_POOL[0])
            alive[max(index.script_ids())] = SCRIPT_POOL[0]
        survivors = [alive[i] for i in sorted(alive)]
        fresh = CorpusVocabulary.from_scripts(survivors)
        assert_bit_identical(index.to_vocabulary(), fresh)
        index.verify()
        # the same contract must survive a snapshot round-trip
        restored = index_from_dict(index_to_dict(index))
        assert_bit_identical(restored.to_vocabulary(), fresh)
        restored.verify()

    @pytest.mark.parametrize("seed", [10, 11])
    def test_refresh_interleaving(self, seed, tmp_path):
        """Random file creates/edits/deletes between refreshes always
        reconcile the index to a cold build over the directory."""
        rng = random.Random(seed)
        directory = tmp_path / "corpus"
        directory.mkdir()
        files = {}  # name -> script
        next_file = 0
        index = CorpusIndex()
        for _ in range(8):
            for _ in range(rng.randrange(1, 4)):
                action = rng.random()
                if action < 0.5 or not files:
                    name = f"s{next_file}.py"
                    next_file += 1
                    files[name] = rng.choice(SCRIPT_POOL)
                    (directory / name).write_text(files[name])
                elif action < 0.8:
                    name = rng.choice(sorted(files))
                    files[name] = rng.choice(SCRIPT_POOL)
                    (directory / name).write_text(files[name])
                else:
                    name = rng.choice(sorted(files))
                    del files[name]
                    (directory / name).unlink()
            index.refresh(str(directory))
            # the index tracks one member per distinct surviving file content
            assert sorted(index.sources()) == sorted(
                lemmatize(script) for script in set(files.values())
            )
            if files:
                index.verify()
                assert_bit_identical(
                    index.to_vocabulary(),
                    CorpusVocabulary.from_scripts(index.sources()),
                )
