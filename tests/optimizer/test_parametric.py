"""Tests for candidate-plan extraction (parametric mode)."""

import numpy as np
import pytest

from repro.catalog import build_tpch_catalog
from repro.core.costmodel import optimal_plan_index
from repro.core.feasible import FeasibleRegion
from repro.optimizer.config import DEFAULT_PARAMETERS
from repro.optimizer.dp import optimize_scalar
from repro.optimizer.parametric import candidate_plans
from repro.optimizer.query import (
    JoinPredicate,
    LocalPredicate,
    QuerySpec,
    TableRef,
)
from repro.storage import StorageLayout


@pytest.fixture(scope="module")
def catalog():
    return build_tpch_catalog(100)


@pytest.fixture(scope="module")
def setup(catalog):
    query = QuerySpec(
        name="t2",
        tables=(TableRef("O", "ORDERS"), TableRef("L", "LINEITEM")),
        joins=(JoinPredicate("O", "O_ORDERKEY", "L", "L_ORDERKEY"),),
        predicates=(LocalPredicate("L", 0.005, "L_SHIPDATE"),),
    )
    layout = StorageLayout.shared_device(query.table_names())
    region = FeasibleRegion(
        layout.center_costs(), 1000.0, layout.independent_groups()
    )
    candidates = candidate_plans(
        query, catalog, DEFAULT_PARAMETERS, layout, region, cell_cap=None
    )
    return query, layout, region, candidates


class TestCandidateSet:
    def test_nonempty_and_untruncated(self, setup):
        __, __, __, candidates = setup
        assert len(candidates) >= 2
        assert not candidates.truncated

    def test_signatures_unique(self, setup):
        __, __, __, candidates = setup
        assert len(set(candidates.signatures)) == len(candidates)

    def test_initial_plan_is_center_optimal(self, setup):
        __, layout, __, candidates = setup
        index = candidates.initial_plan_index()
        center = layout.center_costs()
        totals = [p.usage.dot(center) for p in candidates.plans]
        assert totals[index] == min(totals)

    def test_scalar_optimum_always_in_candidate_set(
        self, catalog, setup
    ):
        """The defining property: at ANY feasible cost vector, the
        scalar DP's choice appears in the candidate set with the same
        total cost."""
        query, layout, region, candidates = setup
        rng = np.random.default_rng(3)
        for cost in region.sample(rng, 8):
            scalar = optimize_scalar(
                query, catalog, DEFAULT_PARAMETERS, layout, cost
            )
            best = optimal_plan_index(candidates.usages, cost)
            assert candidates.usages[best].dot(cost) == pytest.approx(
                scalar.usage.dot(cost), rel=1e-9
            )

    def test_every_candidate_wins_somewhere(self, setup):
        from repro.core.candidates import witness_cost_vector

        __, __, region, candidates = setup
        for index in range(len(candidates)):
            witness = witness_cost_vector(
                index, candidates.usages, region
            )
            assert witness is not None

    def test_narrower_region_never_grows_candidates(
        self, catalog, setup
    ):
        query, layout, region, candidates = setup
        narrow_region = FeasibleRegion(
            layout.center_costs(), 2.0, layout.independent_groups()
        )
        narrow = candidate_plans(
            query, catalog, DEFAULT_PARAMETERS, layout, narrow_region,
            cell_cap=None,
        )
        assert set(narrow.signatures) <= set(candidates.signatures)

    def test_exact_lp_backend_agrees(self, catalog, setup):
        query, layout, region, candidates = setup
        exact = candidate_plans(
            query, catalog, DEFAULT_PARAMETERS, layout, region,
            cell_cap=None, exact_lp=True,
        )
        assert set(exact.signatures) == set(candidates.signatures)
