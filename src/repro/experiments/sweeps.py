"""Shared cost-sweep kernels for the experiment modules.

Every experiment ultimately answers the same inner question many times:
*which candidate plan is optimal at this cost vector, and at what
cost?*  The expected-regret and census experiments answer it here,
with one dense kernel: a ``C @ U.T`` matrix product plus a row-wise
argmin (exact, lowest-index tie-break).  The figure sweep
(:mod:`repro.core.worstcase`) runs the same product over the feasible
region's vertices.

Winner *totals* are recomputed as exact per-winner dot products
(`einsum` over the selected rows), never read out of the
(block-rounded) matrix product.
"""

from __future__ import annotations

import numpy as np

from ..core.feasible import FeasibleRegion
from ..core.regions import winner_counts
from ..obs.decisions import DECISIONS

__all__ = [
    "sweep_winners",
    "sweep_optimal_totals",
    "monte_carlo_shares",
]


def sweep_winners(
    matrix: np.ndarray,
    costs: np.ndarray,
    reference: "int | np.ndarray | None" = None,
) -> np.ndarray:
    """Winning plan row per cost row (lowest index on ties).

    Exactly ``argmin(costs @ matrix.T, axis=1)``.  With
    ``--decisions`` the totals matrix is handed to
    :data:`~repro.obs.decisions.DECISIONS` for margin and
    plane-distance extraction — no second kernel pass.  ``reference``
    (the plan a non-drifted optimizer would pick) enables wrong-choice
    accounting.
    """
    with np.errstate(invalid="ignore"):
        totals = costs @ matrix.T
        winners = np.argmin(totals, axis=1)
    DECISIONS.observe_batch(
        matrix, costs, totals, winners, reference=reference
    )
    return winners


def sweep_optimal_totals(
    matrix: np.ndarray,
    costs: np.ndarray,
    reference: "int | np.ndarray | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(winners, totals)`` per cost row.

    ``totals[r]`` is the exact dot product ``matrix[winners[r]] .
    costs[r]``, not the matrix-product entry.
    """
    winners = sweep_winners(matrix, costs, reference)
    totals = np.einsum(
        "rd,rd->r", costs, matrix[winners], optimize=True
    )
    return winners, totals


def monte_carlo_shares(
    matrix: np.ndarray,
    region: FeasibleRegion,
    rng: np.random.Generator,
    n_samples: int,
    reference: "int | None" = None,
) -> np.ndarray:
    """Monte-Carlo share of the feasible region each plan rules.

    The sample loop of :func:`repro.core.regions.winner_counts`, with
    each chunk decided by :func:`sweep_winners`; the shares of all
    plans sum to 1.  ``reference`` is forwarded to the decision log so
    ``--decisions`` runs can count wrong choices per probe.
    """
    counts = winner_counts(
        matrix, region, rng, n_samples,
        lambda plans, samples: sweep_winners(plans, samples, reference),
    )
    return counts / n_samples
