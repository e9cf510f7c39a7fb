"""Relative-position means are the same on every interpreter.

Python 3.12 made the builtin ``sum()`` of floats compensated; the means
add left to right (:func:`repro._floats.left_sum`), the arithmetic of
3.11's ``sum()``.  The pinned hex digits are that loop's result on
3.10–3.13; 3.12's ``sum()`` ends in ``...4e0p-2`` instead.
"""

from repro._floats import left_sum
from repro.corpus.index import CorpusIndex
from repro.lang import CorpusVocabulary

VALUES = [1 / 3, 2 / 7, 5 / 9, 0.1, 0.7, 4 / 11]
PINNED_MEAN = "0x1.8f0f3e874d4e1p-2"


def test_left_sum_mean_is_pinned():
    assert float.hex(left_sum(VALUES) / len(VALUES)) == PINNED_MEAN


def _scripts():
    """Six scripts placing ``df = df.dropna()`` at the positions
    ``VALUES`` (statement index over the last index)."""
    fill = [f"df['c{k}'] = df['a'] * {k}" for k in range(1, 12)]
    scripts = []
    for index, last in [(1, 3), (2, 7), (5, 9), (1, 10), (7, 10), (4, 11)]:
        body = ["import pandas as pd", "df = pd.read_csv('train.csv')"] + fill
        body = (body[:index] + ["df = df.dropna()"] + body[index:])[: last + 1]
        scripts.append("\n".join(body) + "\n")
    return scripts


def test_vocabulary_and_index_share_the_pinned_mean():
    for vocabulary in (
        CorpusVocabulary.from_scripts(_scripts()),
        CorpusIndex.from_scripts(_scripts()).to_vocabulary(),
    ):
        assert float.hex(vocabulary.relative_positions["df = df.dropna()"]) == PINNED_MEAN
