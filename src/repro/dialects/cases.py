"""Deterministic fixture cases for the ``verify_dialect`` audit.

Each dialect ships one small, fully deterministic standardization case:
a data file set generated by a pure-Python LCG (no RNG library version
dependence), a corpus of stylistically varied peer scripts, one messy
input script, and a fixed search configuration.  ``run_case`` executes
the case through the real pipeline and returns a JSON-serializable
record of everything the search produced — output script, relative
entropies (as exact ``repr`` strings), transformation descriptions,
intent delta.

The pandas record under ``fixtures/`` was captured with the
pre-dialect-refactor pipeline; ``verify_dialect`` replays the case and
compares byte-for-byte, so any refactor that changes pandas behavior in
the slightest trips the audit.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List

__all__ = ["FixtureCase", "fixture_case", "run_case", "fixture_path"]

_FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    """Path of the recorded fixture for dialect *name*."""
    return os.path.join(_FIXTURE_DIR, f"verify_dialect_{name}.json")


@dataclass(frozen=True)
class FixtureCase:
    """One dialect's recorded standardization scenario."""

    dialect: str
    data_files: Dict[str, str]
    corpus: List[str]
    input_script: str
    tau: float
    seq: int
    beam_size: int
    sample_rows: int


def _lcg(seed: int):
    """Minimal deterministic generator — stable across every platform."""
    state = seed & 0x7FFFFFFF
    while True:
        state = (state * 1103515245 + 12345) % (1 << 31)
        yield state


def _pandas_files() -> Dict[str, str]:
    rng = _lcg(7)
    cities = ["north", "south", "east", "west"]
    lines = ["Age,Glucose,City,Outcome"]
    for _ in range(80):
        age = next(rng) % 70
        age_cell = "" if next(rng) % 9 == 0 else str(age)
        glucose = 80 + (next(rng) % 900) / 10.0
        city = cities[next(rng) % 4]
        outcome = next(rng) % 2
        lines.append(f"{age_cell},{glucose},{city},{outcome}")
    return {"train.csv": "\n".join(lines) + "\n"}


_PANDAS_CORPUS = [
    "import pandas as pd\n"
    "df = pd.read_csv('train.csv')\n"
    "df = df.fillna(df.mean())\n"
    "df = df.drop_duplicates()\n"
    "df = df[df['Age'] > 10]",
    "import pandas as pd\n"
    "data = pd.read_csv('train.csv')\n"
    "data = data.fillna(data.mean())\n"
    "data = data.drop_duplicates()\n"
    "data = data[data['Age'] > 10]",
    "import pandas as pd\n"
    "train = pd.read_csv('train.csv')\n"
    "train = train.fillna(train.mean())\n"
    "train = train.drop_duplicates()\n"
    "train = train.sort_values('Age')\n"
    "train = train[train['Age'] > 10]",
    "import pandas as pd\n"
    "df = pd.read_csv('train.csv')\n"
    "df = df.dropna()\n"
    "df = df.drop_duplicates()\n"
    "df = df[df['Age'] > 10]",
    "import pandas as pd\n"
    "df = pd.read_csv('train.csv')\n"
    "df = df.fillna(df.mean())\n"
    "df = df.drop_duplicates()\n"
    "df = df[df['Glucose'] < 160]\n"
    "df = df[df['Age'] > 10]",
    "import pandas as pd\n"
    "frame = pd.read_csv('train.csv')\n"
    "frame = frame.fillna(frame.mean())\n"
    "frame = frame.drop_duplicates()\n"
    "frame = frame[frame['Age'] > 10]",
]

_PANDAS_INPUT = (
    "import pandas as pd\n"
    "mydata = pd.read_csv('train.csv')\n"
    "mydata = mydata.fillna(mydata.mean())\n"
    "mydata['AgeTwice'] = mydata['Age'] * 2\n"
    "mydata = mydata.drop_duplicates()\n"
    "mydata = mydata[mydata['Age'] > 10]"
)


def _tablereport_case() -> FixtureCase:
    from .tablereport_corpus import fixture_design_csv, fixture_scripts

    corpus, input_script = fixture_scripts()
    return FixtureCase(
        dialect="tablereport",
        data_files={"design.csv": fixture_design_csv()},
        corpus=corpus,
        input_script=input_script,
        tau=0.8,
        seq=6,
        beam_size=2,
        sample_rows=200,
    )


def fixture_case(name: str) -> FixtureCase:
    """The deterministic audit scenario of dialect *name*."""
    if name == "pandas":
        return FixtureCase(
            dialect="pandas",
            data_files=_pandas_files(),
            corpus=list(_PANDAS_CORPUS),
            input_script=_PANDAS_INPUT,
            tau=0.8,
            seq=6,
            beam_size=2,
            sample_rows=200,
        )
    if name == "tablereport":
        return _tablereport_case()
    raise ValueError(f"no verify_dialect fixture case for dialect {name!r}")


def run_case(name: str) -> Dict[str, object]:
    """Execute the fixture case through the live pipeline.

    Returns the JSON-serializable record ``verify_dialect`` compares
    against the version captured on disk.  Floats are recorded as
    ``repr`` strings so the comparison is byte-for-byte, not tolerant.
    """
    from ..core.config import LSConfig
    from ..core.intent import TableJaccardIntent
    from ..core.standardizer import LucidScript

    case = fixture_case(name)
    kwargs = dict(
        seq=case.seq,
        beam_size=case.beam_size,
        sample_rows=case.sample_rows,
        dialect=name,
    )
    with tempfile.TemporaryDirectory() as data_dir:
        for filename, text in case.data_files.items():
            with open(os.path.join(data_dir, filename), "w") as handle:
                handle.write(text)
        system = LucidScript(
            case.corpus,
            data_dir=data_dir,
            intent=TableJaccardIntent(tau=case.tau),
            config=LSConfig(**kwargs),
        )
        result = system.standardize(case.input_script)
    return {
        "dialect": name,
        "input_script": result.input_script,
        "output_script": result.output_script,
        "re_before": repr(result.re_before),
        "re_after": repr(result.re_after),
        "transformations": [t.describe() for t in result.transformations],
        "intent_delta": repr(result.intent_delta),
        "intent_satisfied": result.intent_satisfied,
    }


def record_case(name: str, path: str = None) -> str:
    """Run the case and write the fixture record to disk."""
    record = run_case(name)
    target = path or fixture_path(name)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    with open(target, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return target
