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
from ..obs.decisions import DECISIONS

__all__ = [
    "sweep_winners",
    "sweep_optimal_totals",
    "monte_carlo_shares",
]

#: Rows per Monte-Carlo chunk (bounds peak memory of the sweeps).
MC_CHUNK = 4096


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

    Log-uniform sampling per variation group (the region's natural
    measure), chunked so memory stays bounded; the shares of all plans
    sum to 1.  ``reference`` is forwarded to the decision log so
    ``--decisions`` runs can count wrong choices per probe.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    counts = np.zeros(matrix.shape[0], dtype=np.int64)
    remaining = n_samples
    while remaining > 0:
        take = min(remaining, MC_CHUNK)
        samples = region.sample_matrix(rng, take)
        winners = sweep_winners(matrix, samples, reference)
        counts += np.bincount(winners, minlength=len(counts))
        remaining -= take
    return counts / n_samples
