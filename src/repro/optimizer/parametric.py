"""Candidate-optimal plan sets (white-box parametric optimization).

The paper had to *reverse-engineer* candidate plans and usage vectors
through DB2's narrow interface (Sections 6.1.1 and 6.2.1).  Our
optimizer is white-box, so the candidate set is computed directly:

1. run the parametric DP (:func:`repro.optimizer.dp.enumerate_root_plans`)
   to get the root Pareto set.  It holds every plan the DP's pruning
   rule keeps; that rule lets an unordered subplan prune an ordered
   one, so the set can miss plans that are optimal somewhere (see
   :class:`repro.optimizer.dp.ParetoPruner`);
2. LP-filter that set against the experiment's feasible cost region
   (:func:`repro.core.candidates.candidate_optimal_indices`).

The result doubles as the validation oracle for the black-box
algorithms: discovery must find exactly these signatures, and the
least-squares estimates must match these usage vectors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from ..catalog.statistics import Catalog
from ..core.candidates import candidate_optimal_indices
from ..core.feasible import FeasibleRegion
from ..core.vectors import CostVector, UsageVector
from ..obs.metrics import METRICS
from ..obs.trace import span
from ..storage.layout import StorageLayout
from .config import SystemParameters
from .dp import CostedPlan, enumerate_root_plans
from .query import QuerySpec

__all__ = ["CandidateSet", "candidate_plans"]

logger = logging.getLogger(__name__)


@dataclass
class CandidateSet:
    """The candidate optimal plans of one query over one region."""

    query_name: str
    plans: list[CostedPlan]
    region: FeasibleRegion
    #: True if the DP hit its per-cell cap, i.e. the set may be missing
    #: plans (reported, never silently ignored).
    truncated: bool
    #: Lazily stacked ``(m, n)`` usage matrix shared by every consumer
    #: that sweeps the set (black boxes, Monte-Carlo, argmin below).
    _matrix: "np.ndarray | None" = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def usages(self) -> list[UsageVector]:
        return [plan.usage for plan in self.plans]

    @property
    def signatures(self) -> tuple[str, ...]:
        return tuple(plan.signature for plan in self.plans)

    @property
    def usage_matrix(self) -> np.ndarray:
        """The plans' usage vectors stacked into an ``(m, n)`` matrix."""
        if self._matrix is None:
            self._matrix = np.vstack(
                [plan.usage.values for plan in self.plans]
            )
        return self._matrix

    def initial_plan_index(self, center: CostVector | None = None) -> int:
        """Index of the plan optimal at the region center (``C_0``).

        Single vectorised ``U @ C`` + argmin; ``np.argmin`` returns the
        first minimum, preserving the lowest-index tie-break.
        """
        cost = center or self.region.center
        return int(np.argmin(self.usage_matrix @ cost.values))

    def __len__(self) -> int:
        return len(self.plans)

    def __iter__(self):
        return iter(self.plans)


def _deduplicate(plans: list[CostedPlan]) -> list[CostedPlan]:
    """Collapse plans with identical signatures or identical usage.

    Different orders can leave the same plan twice in the root set;
    plans with equal usage vectors are interchangeable for the
    geometric analysis, so the first is kept.  A plan survives iff it
    is the first occurrence of both its signature and its usage row,
    found with two vectorised ``np.unique`` passes over the stacked
    usage matrix and signature array instead of a per-plan scan.
    """
    if not plans:
        return []
    matrix = np.vstack([plan.usage.values for plan in plans])
    __, first_usage = np.unique(matrix, axis=0, return_index=True)
    signatures = np.asarray([plan.signature for plan in plans])
    __, first_signature = np.unique(signatures, return_index=True)
    keep = np.intersect1d(first_usage, first_signature)
    return [plans[i] for i in keep]


def candidate_plans(
    query: QuerySpec,
    catalog: Catalog,
    params: SystemParameters,
    layout: StorageLayout,
    region: FeasibleRegion,
    cell_cap: int | None = 64,
    exact_lp: bool = False,
) -> CandidateSet:
    """Compute the candidate optimal plan set for one experiment cell.

    ``region`` carries both the feasible box (``delta``) and the
    variation-group structure (which dimensions move together), so the
    same function serves all three storage configurations of
    Section 8.1.
    """
    with span(
        "parametric.candidate_plans", query=query.name
    ) as current:
        root_plans, truncated = enumerate_root_plans(
            query, catalog, params, layout, cell_cap=cell_cap
        )
        root_plans = _deduplicate(root_plans)
        usages = [plan.usage for plan in root_plans]
        indices = candidate_optimal_indices(
            usages, region, exact=exact_lp
        )
        chosen = [root_plans[i] for i in indices]
        current.set(
            root_plans=len(root_plans),
            candidates=len(chosen),
            truncated=truncated,
        )
    METRICS.counter("parametric.candidate_sets").inc()
    METRICS.counter("parametric.root_plans").inc(len(root_plans))
    METRICS.counter("parametric.candidates").inc(len(chosen))
    if truncated:
        logger.debug(
            "%s: root Pareto set hit the %s-cell cap; candidate set "
            "is a lower bound", query.name, cell_cap,
        )
    logger.debug(
        "%s: %d root plans -> %d candidates over delta=%g",
        query.name, len(root_plans), len(chosen), region.delta,
    )
    return CandidateSet(
        query_name=query.name,
        plans=chosen,
        region=region,
        truncated=truncated,
    )
