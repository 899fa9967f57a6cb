"""The optimizer behind the paper's narrow interface (Section 7.1).

Two implementations of :class:`repro.core.blackbox.BlackBoxOptimizer`:

* :class:`OptimizerBlackBox` — honest: every ``optimize(C)`` call runs
  the full scalar dynamic program, exactly like re-invoking DB2 with
  new ``db2fopt`` cost settings.  Slow but faithful; its batch entry
  point is necessarily a loop (every probe re-plans the query).
* :class:`CandidateBackedBlackBox` — fast: answers from a precomputed
  candidate plan set.  Because the candidate set contains every plan
  that can be optimal over the region, the answers are identical to the
  honest box within that region; large sweeps use this one.  The
  candidate usage vectors are stacked into one cached ``(m, n)``
  matrix, so a whole batch of cost vectors is answered with a single
  ``C @ U.T`` matrix product plus a row-wise argmin instead of a
  Python loop over plans per call.

Both report only ``(plan signature, estimated total cost)`` — usage
vectors stay hidden, which is the entire point of the paper's
extraction algorithms.
"""

from __future__ import annotations

import numpy as np

from ..catalog.statistics import Catalog
from ..core.blackbox import PlanChoice, as_cost_matrix
from ..core.vectors import CostVector
from ..obs.decisions import DECISIONS
from ..obs.metrics import METRICS
from ..storage.layout import StorageLayout
from .config import SystemParameters
from .dp import optimize_scalar
from .parametric import CandidateSet
from .query import QuerySpec

__all__ = ["OptimizerBlackBox", "CandidateBackedBlackBox"]


class OptimizerBlackBox:
    """Runs the scalar DP on every call (the faithful black box)."""

    def __init__(
        self,
        query: QuerySpec,
        catalog: Catalog,
        params: SystemParameters,
        layout: StorageLayout,
    ) -> None:
        self._query = query
        self._catalog = catalog
        self._params = params
        self._layout = layout
        self._space = layout.center_costs().space
        self.call_count = 0

    @property
    def query(self) -> QuerySpec:
        return self._query

    def optimize(self, cost: CostVector) -> PlanChoice:
        self.call_count += 1
        METRICS.counter("blackbox.dp_calls").inc()
        plan = optimize_scalar(
            self._query, self._catalog, self._params, self._layout, cost
        )
        return PlanChoice(
            signature=plan.signature, total_cost=plan.usage.dot(cost)
        )

    def optimize_batch(self, costs) -> list[PlanChoice]:
        """One full DP run per row — nothing to vectorise here."""
        matrix = as_cost_matrix(self._space, costs)
        return [
            self.optimize(CostVector(self._space, row)) for row in matrix
        ]


class CandidateBackedBlackBox:
    """Answers from a precomputed candidate set (fast, region-exact).

    Outside the candidate set's region the answers may be stale — the
    constructor cannot check that, so callers must keep queries inside
    the region the set was computed for.
    """

    def __init__(self, candidates: CandidateSet) -> None:
        if not candidates.plans:
            raise ValueError("candidate set is empty")
        self._candidates = candidates
        self._space = candidates.region.space
        self._matrix = candidates.usage_matrix
        self._signatures = candidates.signatures
        self.call_count = 0

    @property
    def candidates(self) -> CandidateSet:
        return self._candidates

    def usage_of(self, signature: str):
        """Ground-truth usage (validation only, not the narrow API)."""
        for plan in self._candidates.plans:
            if plan.signature == signature:
                return plan.usage
        raise KeyError(signature)

    def optimize(self, cost: CostVector) -> PlanChoice:
        self.call_count += 1
        METRICS.counter("blackbox.candidate_calls").inc()
        self._space.require_same(cost.space)
        totals = self._matrix @ cost.values
        index = int(np.argmin(totals))
        DECISIONS.observe_one(self._matrix, cost.values, totals, index)
        return PlanChoice(
            signature=self._signatures[index],
            total_cost=float(self._matrix[index] @ cost.values),
        )

    def optimize_batch(self, costs) -> list[PlanChoice]:
        """Whole batch in one ``C @ U.T`` against the cached matrix.

        The reported totals are recomputed as per-plan dot products so
        they match :meth:`optimize` bitwise for the same chosen plan.
        """
        matrix = as_cost_matrix(self._space, costs)
        self.call_count += len(matrix)
        METRICS.counter("blackbox.candidate_calls").inc(len(matrix))
        if not len(matrix):
            return []
        with np.errstate(invalid="ignore"):
            totals = matrix @ self._matrix.T
            indices = np.argmin(totals, axis=1)
        DECISIONS.observe_batch(self._matrix, matrix, totals, indices)
        return [
            PlanChoice(
                signature=self._signatures[index],
                total_cost=float(self._matrix[index] @ row),
            )
            for index, row in zip(indices, matrix)
        ]
