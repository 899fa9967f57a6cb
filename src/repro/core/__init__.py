"""The paper's vector-space sensitivity framework (Sections 3–6).

Everything in this package is optimizer-agnostic: it reasons about
usage vectors, cost vectors and the geometry between them.  The query
optimizer substrate that *produces* usage vectors lives in
:mod:`repro.optimizer`.
"""

from .blackbox import BlackBoxOptimizer, PlanChoice, TabularBlackBox
from .bounds import (
    corollary_constant_bound,
    ratio_extremes,
    theorem1_interval,
    theorem1_plan_bound,
    theorem2_interval,
)
from .candidates import (
    candidate_optimal_indices,
    is_candidate_optimal,
    pareto_undominated_indices,
    witness_cost_vector,
)
from .complementary import (
    ComplementarityCensus,
    PairAnalysis,
    analyze_pair,
    are_complementary,
    census,
    classify_pair,
)
from .costmodel import (
    global_relative_cost,
    optimal_plan,
    optimal_plan_index,
    relative_total_cost,
    total_cost,
    usage_matrix,
)
from .diagram import PlanDiagram, plan_diagram
from .envelope import EnvelopePiece, PlanEnvelope, lower_envelope
from .discovery import DiscoveryResult, discover_candidate_plans
from .estimation import (
    UsageEstimate,
    collect_plan_samples,
    estimate_usage_vector,
    gaussian_solve,
    least_squares_usage,
    validate_estimate,
)
from .feasible import FeasibleRegion, VariationGroup
from .geometry import (
    Side,
    SwitchoverPlane,
    equicost_value,
    on_same_equicost_line,
    switchover_normal,
    switchover_point_in_box,
)
from .regions import InfluenceDiagram, RegionOfInfluence
from .resources import Resource, ResourceSpace, ResourceSpaceMismatchError
from .switching import (
    SwitchingDistance,
    switching_distance,
    switching_distances,
)
from .vectors import CostVector, UsageVector
from .worstcase import (
    WorstCaseCurve,
    WorstCasePoint,
    worst_case_curve,
    worst_case_gtc,
)

__all__ = [
    "BlackBoxOptimizer",
    "PlanChoice",
    "TabularBlackBox",
    "ComplementarityCensus",
    "CostVector",
    "DiscoveryResult",
    "FeasibleRegion",
    "InfluenceDiagram",
    "PairAnalysis",
    "EnvelopePiece",
    "PlanDiagram",
    "PlanEnvelope",
    "RegionOfInfluence",
    "Resource",
    "ResourceSpace",
    "ResourceSpaceMismatchError",
    "Side",
    "SwitchoverPlane",
    "SwitchingDistance",
    "UsageEstimate",
    "UsageVector",
    "VariationGroup",
    "WorstCaseCurve",
    "WorstCasePoint",
    "analyze_pair",
    "are_complementary",
    "candidate_optimal_indices",
    "census",
    "classify_pair",
    "collect_plan_samples",
    "corollary_constant_bound",
    "discover_candidate_plans",
    "equicost_value",
    "estimate_usage_vector",
    "gaussian_solve",
    "global_relative_cost",
    "is_candidate_optimal",
    "least_squares_usage",
    "lower_envelope",
    "on_same_equicost_line",
    "optimal_plan",
    "optimal_plan_index",
    "pareto_undominated_indices",
    "plan_diagram",
    "ratio_extremes",
    "relative_total_cost",
    "switchover_normal",
    "switching_distance",
    "switching_distances",
    "switchover_point_in_box",
    "theorem1_interval",
    "theorem1_plan_bound",
    "theorem2_interval",
    "total_cost",
    "usage_matrix",
    "validate_estimate",
    "witness_cost_vector",
    "worst_case_curve",
    "worst_case_gtc",
]
