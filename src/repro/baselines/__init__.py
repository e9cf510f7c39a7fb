"""repro.baselines — the competing methods of Section 6.1.1.

Behaviour-faithful offline implementations: a Sourcery-style syntax
cleaner, simulated GPT-3.5/GPT-4 rewriters, and Auto-Suggest /
Auto-Tables structural recommenders.  See DESIGN.md for the substitution
rationale for each.
"""

from .auto_suggest import AutoSuggest, predict_next_operator
from .auto_tables import AutoTables, relationality_score, synthesize_reshape_program
from .base import Baseline, BaselineResult
from .learn2clean import Learn2Clean, Learn2CleanAgent, QualityState
from .llm import LLMProfile, SimulatedLLM, gpt35, gpt4
from .syntax_cleaner import SyntaxCleaner
from .table_features import TableFeatures, featurize_table

__all__ = [
    "AutoSuggest",
    "AutoTables",
    "Baseline",
    "BaselineResult",
    "LLMProfile",
    "Learn2Clean",
    "Learn2CleanAgent",
    "QualityState",
    "SimulatedLLM",
    "SyntaxCleaner",
    "TableFeatures",
    "featurize_table",
    "gpt35",
    "gpt4",
    "predict_next_operator",
    "relationality_score",
    "synthesize_reshape_program",
]
