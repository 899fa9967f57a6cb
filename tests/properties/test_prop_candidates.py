"""Property-based tests for candidate-optimal plan sets."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import (
    _probe_certified,
    candidate_optimal_indices,
    is_candidate_optimal,
    pareto_undominated_indices,
)
from repro.core.costmodel import optimal_plan_index
from repro.core.feasible import FeasibleRegion, VariationGroup
from repro.core.resources import ResourceSpace
from repro.core.vectors import CostVector, UsageVector


@st.composite
def plan_set(draw):
    n = draw(st.integers(2, 4))
    m = draw(st.integers(2, 8))
    space = ResourceSpace.from_names([f"r{i}" for i in range(n)])
    plans = [
        UsageVector(
            space,
            draw(
                st.lists(st.floats(0.1, 100.0), min_size=n, max_size=n)
            ),
        )
        for _ in range(m)
    ]
    delta = draw(st.sampled_from([2.0, 10.0, 100.0]))
    center = CostVector(space, [1.0] * n)
    return plans, FeasibleRegion(center, delta)


@given(plan_set(), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_optimum_at_any_feasible_point_is_a_candidate(setup, seed):
    """Defining property of candidate sets (Section 4.4)."""
    plans, region = setup
    candidates = set(candidate_optimal_indices(plans, region))
    rng = np.random.default_rng(seed)
    for cost in region.sample(rng, 10):
        winner = optimal_plan_index(plans, cost)
        winning_total = plans[winner].dot(cost)
        # Winner itself, or a tied plan, must be in the candidate set.
        tied = {
            i
            for i, plan in enumerate(plans)
            if plan.dot(cost) <= winning_total * (1 + 1e-9)
        }
        assert tied & candidates, (winner, candidates)


@given(plan_set())
@settings(max_examples=100, deadline=None)
def test_candidates_subset_of_pareto(setup):
    plans, region = setup
    candidates = set(candidate_optimal_indices(plans, region))
    pareto = set(pareto_undominated_indices(plans, tol=1e-12))
    # Every candidate is undominated or a duplicate of one; check via
    # usage-value membership rather than raw indices.
    pareto_values = {plans[i].values.tobytes() for i in pareto}
    for index in candidates:
        assert plans[index].values.tobytes() in pareto_values


@given(plan_set())
@settings(max_examples=60, deadline=None)
def test_candidate_set_monotone_in_delta(setup):
    plans, region = setup
    small = set(
        candidate_optimal_indices(plans, region.with_delta(1.5))
    )
    large = set(
        candidate_optimal_indices(
            plans, region.with_delta(region.delta * 10)
        )
    )
    # Compare by usage values (duplicate vectors may pick different
    # representative indices).
    small_values = {plans[i].values.tobytes() for i in small}
    large_values = {plans[i].values.tobytes() for i in large}
    assert small_values <= large_values


@given(plan_set())
@settings(max_examples=60, deadline=None)
def test_dominated_plans_never_candidates(setup):
    plans, region = setup
    candidates = set(candidate_optimal_indices(plans, region))
    for i, plan in enumerate(plans):
        for j, other in enumerate(plans):
            if i != j and other.dominates(plan):
                assert i not in candidates
                break


#: Variation-group layouts over 5 dimensions: multi-dimension groups,
#: and dimensions no group covers (held fixed at the center).
GROUPINGS = (
    ((0, 1), (2,), (3, 4)),
    ((0, 1, 2),),
    ((1,), (2, 3)),
    ((0, 4), (1,), (2,)),
    ((0, 1, 2, 3, 4),),
)


@st.composite
def grouped_plan_set(draw):
    space = ResourceSpace.from_names([f"r{i}" for i in range(5)])
    component = st.one_of(
        st.sampled_from([0.0, 1.0, 2.0, 5.0]), st.floats(0.0, 50.0)
    )
    plans = [
        UsageVector(
            space, draw(st.lists(component, min_size=5, max_size=5))
        )
        for _ in range(draw(st.integers(1, 7)))
    ]
    costs = draw(st.lists(st.floats(0.01, 100.0), min_size=5, max_size=5))
    center = CostVector(space, costs)
    groups = tuple(
        VariationGroup(f"g{k}", indices)
        for k, indices in enumerate(draw(st.sampled_from(GROUPINGS)))
    )
    delta = draw(st.sampled_from([1.0, 1.5, 10.0, 100.0, 1e4]))
    return plans, FeasibleRegion(center, delta, groups)


@given(grouped_plan_set())
@settings(max_examples=150, deadline=None)
def test_probe_never_admits_a_plan_the_exact_lp_rejects(setup):
    """A probe-certified plan skips its LP, so it must be a candidate."""
    plans, region = setup
    matrix = np.vstack([plan.values for plan in plans])
    for index in np.flatnonzero(_probe_certified(matrix, region)):
        assert is_candidate_optimal(int(index), plans, region, exact=True)
