"""Worst-case sensitivity analysis (Section 6.1, Figures 5–7).

The experiment: fix an *initial* cost vector ``C_0`` (the optimizer's
estimates) and the *initial plan* ``p_0`` that is optimal under it.  Let
every resource cost drift independently by a multiplicative factor in
``[1/delta, delta]`` and report the worst global relative cost of
``p_0`` — "how many times slower than optimal can the optimizer's choice
get if its estimates are off by up to ``delta``".

Observation 2 reduces the search over the feasible box to its vertices:
``GTC_rel(a, C) = max_b (A . C) / (B . C)`` is a max of quasiconvex
ratios of linear functions, hence quasiconvex, hence maximised at an
extreme point.  The sweep is therefore an exact vectorised enumeration
of ``2**g`` vertices (``g`` = number of variation groups), evaluated in
chunks against the candidate-plan usage matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..obs.decisions import DECISIONS
from .costmodel import usage_matrix
from .feasible import FeasibleRegion
from .vectors import CostVector, UsageVector

__all__ = [
    "WorstCasePoint",
    "WorstCaseCurve",
    "worst_case_gtc",
    "worst_case_curve",
]


@dataclass(frozen=True)
class WorstCasePoint:
    """Worst-case GTC at a single error level ``delta``."""

    delta: float
    gtc: float
    vertex_id: int
    worst_cost: CostVector


@dataclass(frozen=True)
class WorstCaseCurve:
    """One line of Figure 5/6/7: worst GTC as a function of ``delta``."""

    label: str
    initial_plan_index: int
    points: tuple[WorstCasePoint, ...]

    @property
    def deltas(self) -> tuple[float, ...]:
        return tuple(p.delta for p in self.points)

    @property
    def gtcs(self) -> tuple[float, ...]:
        return tuple(p.gtc for p in self.points)

    def final_gtc(self) -> float:
        """Worst-case GTC at the largest delta swept."""
        return self.points[-1].gtc

    def is_bounded(self, plateau_tol: float = 0.05) -> bool:
        """Heuristic: does the curve flatten to a constant?

        Compares the last two sweep points; a relative growth below
        ``plateau_tol`` counts as a plateau (Theorem 2 regime), anything
        faster as unbounded growth (Theorem 1 regime).  Figures 5–7 are
        classified with exactly this rule in the experiment reports.
        """
        if len(self.points) < 2:
            return True
        last = self.points[-1].gtc
        previous = self.points[-2].gtc
        if previous <= 0:
            return True
        return (last / previous - 1.0) <= plateau_tol


def worst_case_gtc(
    initial: UsageVector,
    candidates: Sequence[UsageVector],
    region: FeasibleRegion,
    batch_size: int = 4096,
    reference: "int | None" = None,
) -> WorstCasePoint:
    """Exact worst-case GTC of ``initial`` over ``region``.

    ``candidates`` must include every plan that can be optimal anywhere
    in the region (see :mod:`repro.core.candidates`); the optimum at
    each vertex is then the cheapest candidate.  The initial plan itself
    need not be among the candidates — if it is optimal somewhere, it
    should be, and GTC at such vertices is 1.

    With ``--decisions`` each batch's totals matrix is handed to
    :data:`~repro.obs.decisions.DECISIONS` (``reference`` marks the
    initial plan's row for wrong-choice accounting); the optima are
    read from the same totals either way.
    """
    matrix = usage_matrix(candidates)
    initial.space.require_same(candidates[0].space)
    initial_row = initial.values
    best_gtc = -np.inf
    best_vertex = -1
    for ids, costs in region.vertex_batches(batch_size):
        totals = costs @ matrix.T        # (batch, m)
        DECISIONS.observe_batch(
            matrix, costs, totals, reference=reference
        )
        optima = totals.min(axis=1)      # cheapest per vertex
        initial_totals = costs @ initial_row
        with np.errstate(divide="ignore", invalid="ignore"):
            gtc = np.where(optima > 0, initial_totals / optima, np.inf)
        local_arg = int(np.argmax(gtc))
        if gtc[local_arg] > best_gtc:
            best_gtc = float(gtc[local_arg])
            best_vertex = int(ids[local_arg])
    worst_cost = region.vertex(best_vertex)
    return WorstCasePoint(
        delta=region.delta,
        gtc=best_gtc,
        vertex_id=best_vertex,
        worst_cost=worst_cost,
    )


def worst_case_curve(
    initial: UsageVector,
    candidates: Sequence[UsageVector],
    base_region: FeasibleRegion,
    deltas: Sequence[float],
    label: str = "",
    initial_plan_index: int = -1,
    batch_size: int = 4096,
) -> WorstCaseCurve:
    """Sweep :func:`worst_case_gtc` over a grid of error levels.

    ``base_region`` supplies the center cost vector and variation
    groups; its own delta is ignored in favour of each entry of
    ``deltas``.
    """
    points = []
    reference = initial_plan_index if initial_plan_index >= 0 else None
    for delta in deltas:
        region = base_region.with_delta(delta)
        points.append(
            worst_case_gtc(
                initial, candidates, region, batch_size,
                reference=reference,
            )
        )
    return WorstCaseCurve(
        label=label,
        initial_plan_index=initial_plan_index,
        points=tuple(points),
    )
