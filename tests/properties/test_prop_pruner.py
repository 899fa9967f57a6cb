"""The broadcast Pareto pruner against the pairwise loop it replaced.

``ParetoPruner.prune`` decides each newcomer with two broadcasts over
a stacked matrix of kept rows.  It must keep the same rows, in the
same order and with the same ``truncated`` flag, as the loop below,
which compares a newcomer with one kept plan at a time.  The inputs
stress what the loop's answer depends on: exact duplicates (equal
rows, and plans arriving more than once), rows a tolerance apart in
either direction, the three-way order rule, and the cap's tie-break.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.resources import ResourceSpace
from repro.core.vectors import CostVector, UsageVector
from repro.optimizer.dp import CostedPlan, ParetoPruner

TOL = 1e-9
SPACE = ResourceSpace.from_names(["r0", "r1", "r2"])
CENTER = CostVector(SPACE, [1.0, 0.5, 2.0])
ORDERS = (None, ("A", "a"), ("B", "b"))


def _loop_prune(plans, tol, cap, center):
    """Reference: the pairwise loop, one kept plan at a time."""
    kept = []
    for plan in plans:
        values = plan.usage.values
        dominated = False
        for other in kept:
            if other.order is not None and other.order != plan.order:
                continue
            if np.all(other.usage.values <= values + tol):
                dominated = True
                break
        if dominated:
            continue
        kept = [
            other
            for other in kept
            if not (
                (plan.order is None or plan.order == other.order)
                and np.all(values <= other.usage.values + tol)
            )
        ]
        kept.append(plan)
    truncated = False
    if cap is not None and len(kept) > cap:
        truncated = True
        kept.sort(key=lambda p: p.usage.dot(center))
        kept = kept[:cap]
    return kept, truncated


class _Arrival:
    """One arrival of a plan: the plan's fields plus its position."""

    def __init__(self, plan, position):
        self.usage = plan.usage
        self.order = plan.order
        self.position = position


_component = st.builds(
    lambda base, nudge: base + nudge,
    st.sampled_from([1.0, 2.0, 3.0]),
    st.sampled_from([0.0, 0.0, TOL, -TOL, 0.5 * TOL, 2 * TOL]),
)
_plan = st.builds(
    lambda values, order: CostedPlan(
        node=None, usage=UsageVector(SPACE, values), rows=1.0, order=order
    ),
    st.lists(_component, min_size=3, max_size=3),
    st.sampled_from(ORDERS),
)


@st.composite
def _arrivals(draw):
    """Plans in arrival order, some arriving more than once."""
    pool = draw(st.lists(_plan, max_size=25))
    if not pool:
        return []
    picks = draw(
        st.lists(st.integers(0, len(pool) - 1), max_size=len(pool) // 2)
    )
    order = draw(st.permutations(pool + [pool[i] for i in picks]))
    return list(order)


@given(_arrivals(), st.one_of(st.none(), st.integers(1, 6)))
@settings(max_examples=300, deadline=None)
def test_broadcast_pruner_matches_pairwise_loop(plans, cap):
    pruner = ParetoPruner(tol=TOL, cell_cap=cap, center=CENTER)
    usage = np.array([plan.usage.values for plan in plans]).reshape(-1, 3)
    result = pruner.prune(usage, [plan.order for plan in plans])
    # Positions, so that a plan arriving twice is told apart.
    expected, truncated = _loop_prune(
        [_Arrival(plan, i) for i, plan in enumerate(plans)], TOL, cap, CENTER
    )
    assert result == [arrival.position for arrival in expected]
    assert pruner.truncated == truncated
