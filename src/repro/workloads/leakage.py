"""Target-leakage injection (Section 6.6 study setup).

The paper uses GPT-4 to inject leakage snippets into 10% of real scripts;
offline, we inject programmatically from the same family of patterns the
paper illustrates (Figure 8): target copies, noisy target duplicates, and
target-derived encodings.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

import numpy as np

__all__ = ["LEAKAGE_PATTERNS", "inject_target_leakage", "leakage_snippets_for"]


def leakage_snippets_for(target: str, feature_column: Optional[str] = None) -> List[str]:
    """The leakage snippet family, instantiated for a target column."""
    snippets = [
        f"df['{target}_copy'] = df['{target}']",
        f"df['{target}_dup'] = df['{target}'] * 1",
        (
            f"df['{target}_noisy'] = df['{target}']\n"
            f"update = df.sample(20, random_state=1).index\n"
            f"df.loc[update, '{target}_noisy'] = 0"
        ),
    ]
    if feature_column:
        snippets.append(
            f"df['{feature_column}_enc'] = "
            f"df.groupby('{feature_column}')['{target}'].transform('mean')"
        )
    return snippets


#: Exposed for documentation/tests; instantiated per-target at use time.
LEAKAGE_PATTERNS = ("copy", "dup", "noisy_copy", "target_encoding")


def inject_target_leakage(
    script: str,
    target: str,
    rng: np.random.Generator,
    feature_column: Optional[str] = None,
) -> Tuple[str, List[str]]:
    """Insert one leakage snippet into *script*.

    The snippet lands just before the conventional ``y = df[target]`` /
    ``X = df.drop(...)`` tail when present (so the leaked column survives
    into the feature set), else at the end of the script.

    Returns
    -------
    (injected_script, [snippet]) — the snippet is the ground truth the
    detector must flag.
    """
    if f"'{target}'" not in script and f'"{target}"' not in script:
        raise ValueError(
            f"script never references the target column {target!r}; "
            "leakage injection would be undetectable by construction"
        )
    snippets = leakage_snippets_for(target, feature_column)
    snippet = snippets[int(rng.integers(0, len(snippets)))]

    # scripts may call their dataframe `train`/`data`; match the snippet to it
    match = re.search(r"^(\w+)\s*=\s*pd\.read_csv", script, flags=re.MULTILINE)
    if match and match.group(1) != "df":
        snippet = re.sub(r"\bdf\b", match.group(1), snippet)

    lines = script.splitlines()
    insert_at = len(lines)
    for position, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("y =") or stripped.startswith("X ="):
            insert_at = position
            break
    new_lines = lines[:insert_at] + snippet.splitlines() + lines[insert_at:]
    return "\n".join(new_lines), [snippet]
