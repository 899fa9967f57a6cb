"""Candidate optimal plans (Section 4.4).

Of the many plans an optimizer enumerates, only a subset can ever become
optimal as storage access costs vary.  A plan *a* is **candidate
optimal** over a feasible cost region iff there exists a feasible cost
vector ``C`` with ``A . C <= B . C`` for every rival plan *b*.

Two facts make the test cheap:

* A plan that lies in the positive first quadrant relative to another
  plan (``A' >= A`` componentwise, ``A' != A``) is *dominated* and can be
  discarded without solving anything (Figure 3 of the paper).
* For the survivors the question is an LP feasibility problem over the
  feasible region box, solved by :mod:`repro.core.lp`.
* Most survivors need no LP at all.  Like the paper's discovery loop
  (Section 6.2.1), which finds candidate plans by probing cost
  vectors, :func:`candidate_optimal_indices` first evaluates every
  survivor at fixed points of the region; a plan that beats every
  rival by a clear margin at one of them is candidate optimal, and
  only the others are sent to the solver.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .feasible import FeasibleRegion
from .lp import feasible_point, max_min_slack
from .vectors import UsageVector

__all__ = [
    "pareto_undominated_indices",
    "is_candidate_optimal",
    "candidate_optimal_indices",
    "witness_cost_vector",
]


def pareto_undominated_indices(
    usages: Sequence[UsageVector] | np.ndarray, tol: float = 0.0
) -> list[int]:
    """Indices of plans not dominated componentwise by any other plan.

    Duplicates are kept once (the first occurrence survives).  ``tol``
    is an absolute slack for float comparisons: *a* dominates *b* when
    ``A <= B + tol`` componentwise and the vectors differ by more than
    ``tol`` somewhere.
    """
    if isinstance(usages, np.ndarray):
        matrix = usages
    else:
        matrix = np.vstack([u.values for u in usages])
    m = matrix.shape[0]
    # covers[i, j]: plan j <= plan i + tol everywhere; strict[i, j]:
    # plan j < plan i - tol somewhere.
    covers = (matrix[None, :, :] <= (matrix + tol)[:, None, :]).all(axis=2)
    strict = (matrix[None, :, :] < (matrix - tol)[:, None, :]).any(axis=2)
    np.fill_diagonal(covers, False)
    # Componentwise equal within tol: deduplicate, keep the earliest.
    earlier = np.tri(m, k=-1, dtype=bool)
    dominated = (covers & (strict | earlier)).any(axis=1)
    return np.flatnonzero(~dominated).tolist()


#: A plan whose normalised slack over every rival exceeds this at one
#: probe point is candidate optimal without an LP (see
#: :func:`candidate_optimal_indices`).
_PROBE_MARGIN = 1e-6
#: Probe every vertex of the region when it has at most this many
#: variation groups (1024 vertices).
_PROBE_VERTEX_GROUPS = 10
#: Log-uniform interior probe points, drawn from a fixed seed.
_PROBE_SAMPLES = 256
_PROBE_SEED = 0


def _multiplier_rows(
    diff: np.ndarray, region: FeasibleRegion
) -> tuple[np.ndarray, np.ndarray]:
    """LP rows ``(B - A) . C >= 0`` in the region's multiplier space.

    ``diff`` holds usage differences ``B - A`` along its last axis.
    Returns ``(coeffs, rhs)``: per variation group, the differences
    weighted by the group's center costs, and the fixed dimensions'
    share moved to the right-hand side.  Terms are added in dimension
    order starting from zero, so a row is the same floats however
    many rows are built at once.
    """
    center = region.center.values
    shape = diff.shape[:-1]
    coeffs = np.empty(shape + (len(region.groups),))
    for k, group in enumerate(region.groups):
        total = np.zeros(shape)
        for d in group.indices:
            total = total + diff[..., d] * center[d]
        coeffs[..., k] = total
    constant = np.zeros(shape)
    for d in region.fixed_dimensions:
        constant = constant + diff[..., d] * center[d]
    return coeffs, -constant


def _rival_system(
    matrix: np.ndarray, index: int, region: FeasibleRegion
) -> tuple[list, list, list, list]:
    """``(A_ge, b_ge, lo, hi)`` of plan ``index``'s LP against its rivals.

    One variable per variation group, so grouped dimensions provably
    share a factor; fixed dimensions contribute constants.
    """
    diff = np.delete(matrix - matrix[index], index, axis=0)
    coeffs, rhs = _multiplier_rows(diff, region)
    g = len(region.groups)
    lo = [1.0 / region.delta] * g
    hi = [region.delta] * g
    return coeffs.tolist(), rhs.tolist(), lo, hi


def is_candidate_optimal(
    index: int,
    usages: Sequence[UsageVector],
    region: FeasibleRegion,
    exact: bool = False,
) -> bool:
    """Is plan ``index`` optimal somewhere in ``region``?

    Variation groups of the region are honoured: grouped dimensions
    share one multiplier, which shrinks the LP to one variable per
    group (this is exactly the structure of the paper's Section 8.1.2
    experiment, where each disk's seek/transfer costs move together).
    """
    return witness_cost_vector(index, usages, region, exact=exact) is not None


def witness_cost_vector(
    index: int,
    usages: Sequence[UsageVector],
    region: FeasibleRegion,
    exact: bool = False,
):
    """A feasible cost vector making plan ``index`` optimal, or ``None``.

    The returned value is a :class:`~repro.core.vectors.CostVector`.
    """
    from .vectors import CostVector

    matrix = np.vstack([u.values for u in usages])
    space = usages[0].space
    region.space.require_same(space)
    point = feasible_point(*_rival_system(matrix, index, region), exact=exact)
    if point is None:
        return None
    center = region.center.values
    values = center.copy()
    for factor, group in zip(point, region.groups):
        for k in group.indices:
            values[k] = center[k] * float(factor)
    return CostVector(space, values)


def _probe_points(region: FeasibleRegion) -> np.ndarray:
    """Fixed points of the multiplier box ``[1/delta, delta]**g``.

    One point per row: the center, every vertex when ``g`` is at most
    :data:`_PROBE_VERTEX_GROUPS` (bit *k* of the vertex id sets group
    *k* to ``delta``, as in :meth:`FeasibleRegion.vertex`), and
    :data:`_PROBE_SAMPLES` log-uniform points from a fixed seed.
    """
    g = len(region.groups)
    delta = region.delta
    points = [np.ones((1, g))]
    if g <= _PROBE_VERTEX_GROUPS:
        bits = (np.arange(1 << g)[:, None] >> np.arange(g)) & 1
        points.append(np.where(bits == 1, delta, 1.0 / delta))
    rng = np.random.default_rng(_PROBE_SEED)
    exponents = rng.uniform(-1.0, 1.0, size=(_PROBE_SAMPLES, g))
    points.append(np.clip(delta**exponents, 1.0 / delta, delta))
    return np.vstack(points)


def _probe_certified(
    matrix: np.ndarray, region: FeasibleRegion
) -> np.ndarray:
    """Which plans beat every rival by :data:`_PROBE_MARGIN` at a probe.

    The slack of a plan at a point is its LP's: every row ``(B_j - A)``
    is built by :func:`_multiplier_rows` and scaled as
    :func:`repro.core.lp.max_min_slack` scales it.  A plan certified
    here therefore has an LP optimum of at least the margin, so the
    LP would keep it too.  The margin is raised by a bound on the
    rounding error of evaluating a scaled row (whose coefficients are
    at most 1) at a point no larger than ``delta``.
    """
    m = matrix.shape[0]
    g = len(region.groups)
    coeffs, rhs = _multiplier_rows(
        matrix[None, :, :] - matrix[:, None, :], region
    )
    scale = np.maximum(np.abs(coeffs).max(axis=2, initial=0.0), np.abs(rhs))
    scale = np.maximum(scale, 1.0)
    coeffs = coeffs / scale[..., None]
    rhs = rhs / scale
    points = _probe_points(region).T
    eps = np.finfo(float).eps
    margin = _PROBE_MARGIN + 4 * (g + 1) * eps * (g * region.delta + 1)
    certified = np.zeros(m, dtype=bool)
    for i in range(m):
        slack = coeffs[i] @ points - rhs[i][:, None]
        slack[i] = np.inf  # a plan is no rival of itself
        certified[i] = slack.min(axis=0).max() > margin
    return certified


def candidate_optimal_indices(
    usages: Sequence[UsageVector],
    region: FeasibleRegion,
    exact: bool = False,
    prefilter_tol: float = 0.0,
) -> list[int]:
    """All candidate optimal plans among ``usages`` over ``region``.

    Componentwise-dominated plans are discarded first (sound for any
    region in the positive orthant).  A survivor that beats every
    rival by :data:`_PROBE_MARGIN` at one of the fixed points of
    :func:`_probe_points` is candidate optimal by that point; every
    other survivor gets an LP feasibility test.  ``exact=True`` sends
    every survivor to the exact LP: the probe evaluates its slack in
    floating point, and exact mode is the answer that depends on no
    rounding (it is also the oracle the probe is tested against).
    """
    survivors = pareto_undominated_indices(usages, tol=prefilter_tol)
    subset = [usages[i] for i in survivors]
    region.space.require_same(subset[0].space)
    if exact:
        certified = np.zeros(len(subset), dtype=bool)
    else:
        matrix = np.vstack([u.values for u in subset])
        certified = _probe_certified(matrix, region)
    return [
        global_index
        for local_index, global_index in enumerate(survivors)
        if certified[local_index]
        or is_candidate_optimal(local_index, subset, region, exact=exact)
    ]


def region_of_influence_margin(
    index: int,
    usages: Sequence[UsageVector],
    region: FeasibleRegion,
    exact: bool = False,
) -> float | None:
    """Best slack of the system defining plan ``index``'s region.

    Positive margin = the region of influence has nonempty interior
    within the feasible box; zero = the plan is optimal only on a
    lower-dimensional boundary; ``None`` = not candidate optimal at all.
    The slack is measured in multiplier space, so its magnitude is
    comparable across plans.
    """
    matrix = np.vstack([u.values for u in usages])
    result = max_min_slack(*_rival_system(matrix, index, region), exact=exact)
    if not result.is_optimal or result.objective is None:
        return None
    margin = float(result.objective)
    return margin if margin >= 0 else None
