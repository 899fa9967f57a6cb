"""The narrow optimizer interface the paper works through (Section 6.1.1).

Commercial optimizers do not expose resource usage vectors; they expose
just enough to run the paper's algorithms:

* the user can set every resource cost;
* for a given cost vector the optimizer reports the chosen plan's
  *identity* (an EXPLAIN-style signature) and its *estimated total
  cost*.

:class:`BlackBoxOptimizer` is the :class:`typing.Protocol` for that
contract.  Because the paper's algorithms spend their entire budget on
optimizer invocations, the protocol also carries a *batched* entry
point, :meth:`BlackBoxOptimizer.optimize_batch`: one call answering a
whole matrix of cost vectors, which lets backends replace a Python loop
over plans per probe with a single ``C @ U.T`` matrix product.
:func:`batch_optimize` is the generic driver — it uses an optimizer's
native batch method when present and falls back to looping
:meth:`~BlackBoxOptimizer.optimize` otherwise, so algorithms written
against batches work with any single-call implementation.

:class:`TabularBlackBox` is a trivial implementation backed by an
explicit plan list — handy in tests and as the "ideal DB2" against
which the extraction algorithms are validated.  The real substrate
implementation lives in :mod:`repro.optimizer.blackbox`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

import numpy as np

from ..obs.decisions import DECISIONS
from ..obs.metrics import METRICS
from .vectors import CostVector, UsageVector

__all__ = [
    "PlanChoice",
    "BlackBoxOptimizer",
    "TabularBlackBox",
    "as_cost_matrix",
    "batch_optimize",
]


@dataclass(frozen=True)
class PlanChoice:
    """What a narrow optimizer interface reveals for one cost vector."""

    signature: str
    total_cost: float


def as_cost_matrix(space, costs) -> np.ndarray:
    """Normalise a batch of cost vectors into a ``(k, n)`` matrix.

    Accepts a ready-made 2-D array (returned as-is after a shape check)
    or a sequence of :class:`CostVector` bound to ``space``.
    """
    if isinstance(costs, np.ndarray):
        matrix = np.asarray(costs, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != space.dimension:
            raise ValueError(
                f"expected a (k, {space.dimension}) cost matrix, got "
                f"shape {matrix.shape}"
            )
        return matrix
    rows = []
    for cost in costs:
        space.require_same(cost.space)
        rows.append(cost.values)
    if not rows:
        return np.empty((0, space.dimension))
    return np.vstack(rows)


def batch_optimize(optimizer, space, costs) -> list[PlanChoice]:
    """Evaluate a batch of cost vectors against any black box.

    Dispatches to the optimizer's native ``optimize_batch`` when it has
    one; otherwise falls back to looping :meth:`optimize` — the generic
    path that keeps call-count and answer semantics identical, one
    Python-level invocation per cost vector.
    """
    method = getattr(optimizer, "optimize_batch", None)
    if method is not None:
        choices = method(costs)
        METRICS.counter("optimize_batch.rows").inc(len(choices))
        METRICS.counter("optimize_batch.batches").inc()
        return choices
    matrix = as_cost_matrix(space, costs)
    METRICS.counter("optimize_batch.fallback_rows").inc(len(matrix))
    return [optimizer.optimize(CostVector(space, row)) for row in matrix]


@runtime_checkable
class BlackBoxOptimizer(Protocol):
    """Anything that optimises a fixed query under variable costs."""

    def optimize(self, cost: CostVector) -> PlanChoice:
        """Return the estimated optimal plan id and its estimated cost."""
        ...  # pragma: no cover - protocol

    def optimize_batch(self, costs) -> list[PlanChoice]:
        """Answer one :class:`PlanChoice` per row of a cost batch.

        Semantically equivalent to calling :meth:`optimize` on every
        row (including call accounting: a batch of *k* counts as *k*
        optimizer invocations), but implementations may vectorise.
        """
        ...  # pragma: no cover - protocol


class TabularBlackBox:
    """A black box backed by an explicit list of (signature, usage) plans.

    The optimizer behaviour is exact: the reported plan minimises
    ``U . C`` with deterministic lowest-index tie-breaking, and the
    reported total cost is the exact dot product.  ``call_count`` tracks
    how many optimizer invocations an algorithm spent — the budget
    currency of the discovery experiments; a batch of *k* cost vectors
    counts as *k* invocations.

    An optional ``quantization`` emulates the cost rounding the paper had
    to work around in DB2 ("to compensate for quantization error within
    the query optimizer we always used at least m = 2n samples"): the
    reported total cost is rounded to that relative precision.
    """

    def __init__(
        self,
        plans: Sequence[tuple[str, UsageVector]],
        quantization: float = 0.0,
    ) -> None:
        if not plans:
            raise ValueError("need at least one plan")
        signatures = [signature for signature, __ in plans]
        if len(set(signatures)) != len(signatures):
            raise ValueError("plan signatures must be unique")
        self._plans = list(plans)
        self._space = plans[0][1].space
        for __, usage in plans[1:]:
            self._space.require_same(usage.space)
        self._matrix = np.vstack([usage.values for __, usage in plans])
        self._quantization = float(quantization)
        self.call_count = 0

    @property
    def plans(self) -> list[tuple[str, UsageVector]]:
        return list(self._plans)

    def usage_of(self, signature: str) -> UsageVector:
        """Ground-truth usage vector (NOT part of the narrow interface).

        Validation code may call this; extraction algorithms must not.
        """
        for candidate_signature, usage in self._plans:
            if candidate_signature == signature:
                return usage
        raise KeyError(signature)

    def _quantize(self, total: float) -> float:
        if self._quantization > 0.0 and total > 0.0:
            from math import ceil, log10

            step = self._quantization * 10.0 ** ceil(log10(total))
            total = round(total / step) * step
        return total

    def optimize(self, cost: CostVector) -> PlanChoice:
        self.call_count += 1
        self._space.require_same(cost.space)
        totals = self._matrix @ cost.values
        index = int(np.argmin(totals))
        DECISIONS.observe_one(self._matrix, cost.values, totals, index)
        total = float(self._matrix[index] @ cost.values)
        return PlanChoice(
            signature=self._plans[index][0],
            total_cost=self._quantize(total),
        )

    def optimize_batch(self, costs) -> list[PlanChoice]:
        """Vectorised batch: one ``C @ U.T`` for the whole cost matrix.

        The reported totals are recomputed as per-plan dot products so
        they match :meth:`optimize` bitwise for the same chosen plan.
        """
        matrix = as_cost_matrix(self._space, costs)
        self.call_count += len(matrix)
        if not len(matrix):
            return []
        with np.errstate(invalid="ignore"):
            totals = matrix @ self._matrix.T
            indices = np.argmin(totals, axis=1)
        DECISIONS.observe_batch(self._matrix, matrix, totals, indices)
        return [
            PlanChoice(
                signature=self._plans[index][0],
                total_cost=self._quantize(
                    float(self._matrix[index] @ row)
                ),
            )
            for index, row in zip(indices, matrix)
        ]
