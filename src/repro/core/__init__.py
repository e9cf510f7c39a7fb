"""repro.core — LucidScript: bottom-up data-preparation script standardization.

The paper's primary contribution: relative-entropy standardness scoring,
user-intent measures, transformation search (Algorithms 1-3), and the
:class:`LucidScript` facade.
"""

from .._audit import AuditMismatchError
from .beam import BeamSearch, Candidate, SearchStats
from .config import LSConfig, recommend_parameters
from .diversity import cluster_transformations, kmeans, transformation_features
from .entropy import (
    REStats,
    RelativeEntropyScorer,
    percent_improvement,
    relative_entropy,
)
from .explain import TransformationExplanation, explain_result
from .grouping import OperationGroups, group_operations
from .intent import (
    IntentMeasure,
    IntentStats,
    ModelPerformanceIntent,
    PreparedIntent,
    TableJaccardIntent,
    model_performance_delta,
    table_fingerprint,
    table_jaccard,
)
from .leakage import LeakageDetection, detect_target_leakage
from .pareto import TradeoffPoint, explore_intent_thresholds, pareto_frontier
from .standardizer import LucidScript, StandardizationError, StandardizationResult
from .transformations import (
    Transformation,
    apply_transformation,
    enumerate_transformations,
)

__all__ = [
    "AuditMismatchError",
    "BeamSearch",
    "Candidate",
    "IntentMeasure",
    "IntentStats",
    "LSConfig",
    "LeakageDetection",
    "LucidScript",
    "ModelPerformanceIntent",
    "OperationGroups",
    "PreparedIntent",
    "REStats",
    "RelativeEntropyScorer",
    "SearchStats",
    "StandardizationError",
    "StandardizationResult",
    "TableJaccardIntent",
    "TradeoffPoint",
    "Transformation",
    "TransformationExplanation",
    "apply_transformation",
    "cluster_transformations",
    "detect_target_leakage",
    "enumerate_transformations",
    "explain_result",
    "explore_intent_thresholds",
    "group_operations",
    "kmeans",
    "pareto_frontier",
    "model_performance_delta",
    "percent_improvement",
    "recommend_parameters",
    "relative_entropy",
    "table_fingerprint",
    "table_jaccard",
    "transformation_features",
]
