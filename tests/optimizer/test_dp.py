"""Tests for the DP enumerator (scalar and parametric modes)."""

import numpy as np
import pytest

from repro.catalog import build_tpch_catalog
from repro.core.candidates import pareto_undominated_indices
from repro.core.vectors import CostVector
from repro.experiments.scenarios import scenario
from repro.optimizer.config import DEFAULT_PARAMETERS
from repro.optimizer.dp import (
    ParetoPruner,
    PlanEnumerator,
    ScalarPruner,
    enumerate_root_plans,
    optimize_scalar,
)
from repro.optimizer.query import (
    JoinPredicate,
    LocalPredicate,
    QuerySpec,
    TableRef,
)
from repro.storage import StorageLayout
from repro.workloads.tpch_queries import tpch_query


@pytest.fixture(scope="module")
def catalog():
    return build_tpch_catalog(100)


def _query():
    return QuerySpec(
        name="t3",
        tables=(
            TableRef("C", "CUSTOMER"),
            TableRef("O", "ORDERS"),
            TableRef("L", "LINEITEM"),
        ),
        joins=(
            JoinPredicate("C", "C_CUSTKEY", "O", "O_CUSTKEY"),
            JoinPredicate("O", "O_ORDERKEY", "L", "L_ORDERKEY"),
        ),
        predicates=(
            LocalPredicate("O", 0.05, "O_ORDERDATE"),
            LocalPredicate("L", 0.01, "L_SHIPDATE"),
        ),
    )


def _layout(query):
    return StorageLayout.shared_device(query.table_names())


class TestBasePlans:
    def test_every_alias_has_a_table_scan(self, catalog):
        query = _query()
        enum = PlanEnumerator(query, catalog, DEFAULT_PARAMETERS,
                              _layout(query))
        for alias in query.aliases:
            signatures = [p.signature for p in enum.base_plans(alias)]
            assert f"TBSCAN({alias})" in signatures

    def test_sargable_predicate_enables_index_scan(self, catalog):
        query = _query()
        enum = PlanEnumerator(query, catalog, DEFAULT_PARAMETERS,
                              _layout(query))
        signatures = [p.signature for p in enum.base_plans("L")]
        assert any("IXSCAN(L,L_SD" in s for s in signatures)

    def test_order_scan_on_join_column(self, catalog):
        query = _query()
        enum = PlanEnumerator(query, catalog, DEFAULT_PARAMETERS,
                              _layout(query))
        plans = enum.base_plans("O")
        ordered = [p for p in plans if p.order == ("O", "O_ORDERKEY")]
        assert ordered  # O_PK delivers the join order

    def test_base_plan_cache(self, catalog):
        query = _query()
        enum = PlanEnumerator(query, catalog, DEFAULT_PARAMETERS,
                              _layout(query))
        assert enum.base_plans("C") is enum.base_plans("C")

    def test_rows_reflect_local_selectivity(self, catalog):
        query = _query()
        enum = PlanEnumerator(query, catalog, DEFAULT_PARAMETERS,
                              _layout(query))
        rows = enum.base_plans("O")[0].rows
        assert rows == pytest.approx(catalog.row_count("ORDERS") * 0.05)


class TestScalarMode:
    def test_returns_single_cheapest_plan(self, catalog):
        query = _query()
        layout = _layout(query)
        best = optimize_scalar(
            query, catalog, DEFAULT_PARAMETERS, layout,
            layout.center_costs(),
        )
        assert best.node.aliases() == frozenset(query.aliases)

    def test_optimum_shifts_with_costs(self, catalog):
        query = _query()
        layout = _layout(query)
        center = layout.center_costs()
        cheap_seek = center.perturbed({"disk.seek": 1e-4})
        expensive_seek = center.perturbed({"disk.seek": 1e4})
        plan_cheap = optimize_scalar(
            query, catalog, DEFAULT_PARAMETERS, layout, cheap_seek
        )
        plan_expensive = optimize_scalar(
            query, catalog, DEFAULT_PARAMETERS, layout, expensive_seek
        )
        assert plan_cheap.signature != plan_expensive.signature

    def test_scalar_never_beaten_by_parametric_plan(self, catalog):
        """The scalar optimum matches the best plan in the Pareto set."""
        query = _query()
        layout = _layout(query)
        rng = np.random.default_rng(7)
        plans, truncated = enumerate_root_plans(
            query, catalog, DEFAULT_PARAMETERS, layout, cell_cap=None
        )
        assert not truncated
        for _ in range(5):
            factors = 10.0 ** rng.uniform(-2, 2, layout.space.dimension)
            cost = CostVector(
                layout.space, layout.center_costs().values * factors
            )
            scalar_best = optimize_scalar(
                query, catalog, DEFAULT_PARAMETERS, layout, cost
            )
            pareto_best = min(p.usage.dot(cost) for p in plans)
            assert scalar_best.usage.dot(cost) == pytest.approx(
                pareto_best, rel=1e-9
            )


class TestParametricMode:
    def test_root_set_is_pareto_minimal(self, catalog):
        query = _query()
        layout = _layout(query)
        plans, __ = enumerate_root_plans(
            query, catalog, DEFAULT_PARAMETERS, layout, cell_cap=None
        )
        usages = [p.usage for p in plans]
        undominated = pareto_undominated_indices(usages, tol=1e-9)
        assert sorted(undominated) == list(range(len(plans)))

    def test_cell_cap_reports_truncation(self, catalog):
        query = _query()
        layout = StorageLayout.per_table_and_index(query.table_names())
        __, truncated_tight = enumerate_root_plans(
            query, catalog, DEFAULT_PARAMETERS, layout, cell_cap=2
        )
        assert truncated_tight

    def test_pareto_pruner_requires_center_for_cap(self):
        with pytest.raises(ValueError):
            ParetoPruner(cell_cap=10)

    def test_unordered_plan_prunes_an_ordered_one(self):
        """The rule the pruner applies, whether or not it is sound."""
        cheap, ordered = [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]
        order = ("O", "O_ORDERKEY")
        assert ParetoPruner().prune(
            np.array([cheap, ordered]), [None, order]
        ) == [0]
        assert ParetoPruner().prune(
            np.array([ordered, cheap]), [order, None]
        ) == [1]

    @pytest.mark.xfail(
        strict=True,
        reason="ParetoPruner lets an unordered plan prune an ordered "
        "one, so untruncated root sets can miss optimal plans "
        "(EXPERIMENTS.md, known divergence 5)",
    )
    def test_root_set_holds_the_scalar_optimum(self, catalog):
        """Colocated Q3 at a vertex of the delta = 10 region.

        The scalar optimizer's plan there is 14% cheaper than every
        plan of the (untruncated) root set.
        """
        config = scenario("colocated")
        query = tpch_query("Q3", catalog)
        layout = config.layout_for(query)
        cost = config.region(layout, 10.0).vertex(16)
        plans, __ = enumerate_root_plans(
            query, catalog, DEFAULT_PARAMETERS, layout
        )
        best = optimize_scalar(
            query, catalog, DEFAULT_PARAMETERS, layout, cost
        )
        cheapest_root = min(plan.usage.dot(cost) for plan in plans)
        assert cheapest_root <= best.usage.dot(cost) * (1 + 1e-9)


def _rows(plans):
    """The row-pruner inputs of a plan list: usage rows and orders."""
    return (
        np.vstack([plan.usage.values for plan in plans]),
        [plan.order for plan in plans],
    )


class TestPruners:
    def test_scalar_pruner_keeps_ordered_winners(self, catalog):
        query = _query()
        layout = _layout(query)
        enum = PlanEnumerator(query, catalog, DEFAULT_PARAMETERS, layout)
        plans = enum.base_plans("O")
        kept = ScalarPruner(layout.center_costs()).prune(*_rows(plans))
        orders = {plans[i].order for i in kept}
        assert len(kept) == len(orders)  # one winner per order group

    def test_pareto_pruner_removes_dominated(self, catalog):
        query = _query()
        layout = _layout(query)
        enum = PlanEnumerator(query, catalog, DEFAULT_PARAMETERS, layout)
        plans = enum.base_plans("L")
        doubled = plans + plans  # duplicates must collapse
        kept = ParetoPruner().prune(*_rows(doubled))
        signatures = [doubled[i].signature for i in kept]
        assert len(signatures) == len(set(signatures))
        assert max(kept) < len(plans)  # the first copy is the one kept


class TestStructure:
    def test_cross_product_query_raises(self, catalog):
        query = QuerySpec(
            "cross",
            (TableRef("A", "NATION"), TableRef("B", "REGION")),
        )
        layout = StorageLayout.shared_device(query.table_names())
        enum = PlanEnumerator(query, catalog, DEFAULT_PARAMETERS, layout)
        with pytest.raises(RuntimeError, match="connected"):
            enum.enumerate(ScalarPruner(layout.center_costs()))

    def test_single_table_query(self, catalog):
        query = QuerySpec(
            "single",
            (TableRef("L", "LINEITEM"),),
            predicates=(LocalPredicate("L", 0.01, "L_SHIPDATE"),),
            group_by=(("L", "L_RETURNFLAG"),),
        )
        layout = StorageLayout.shared_device(query.table_names())
        best = optimize_scalar(
            query, catalog, DEFAULT_PARAMETERS, layout,
            layout.center_costs(),
        )
        assert best.signature.startswith("GRPBY(")

    def test_group_by_adds_aggregate_and_order_by_adds_sort(self, catalog):
        query = QuerySpec(
            "go",
            (TableRef("O", "ORDERS"), TableRef("L", "LINEITEM")),
            joins=(JoinPredicate("O", "O_ORDERKEY", "L", "L_ORDERKEY"),),
            group_by=(("O", "O_ORDERPRIORITY"),),
            order_by=(("O", "O_ORDERPRIORITY"),),
        )
        layout = StorageLayout.shared_device(query.table_names())
        best = optimize_scalar(
            query, catalog, DEFAULT_PARAMETERS, layout,
            layout.center_costs(),
        )
        assert "GRPBY(" in best.signature
        assert best.signature.startswith("SORT(")

    def test_self_join_aliases_supported(self, catalog):
        query = QuerySpec(
            "self",
            (TableRef("L1", "LINEITEM"), TableRef("L2", "LINEITEM")),
            joins=(
                JoinPredicate(
                    "L1", "L_ORDERKEY", "L2", "L_ORDERKEY",
                    selectivity=1e-9,
                ),
            ),
            predicates=(LocalPredicate("L1", 0.001, "L_SHIPDATE"),),
        )
        layout = StorageLayout.shared_device(query.table_names())
        best = optimize_scalar(
            query, catalog, DEFAULT_PARAMETERS, layout,
            layout.center_costs(),
        )
        assert best.node.aliases() == frozenset({"L1", "L2"})


class TestInterestingOrders:
    def test_order_by_satisfied_by_index_avoids_sort(self, catalog):
        """When an access path already delivers the ORDER BY order, the
        optimizer can skip the final sort — and does so when random
        I/O is cheap enough to make the ordered index scan win."""
        query = QuerySpec(
            "ordered",
            (TableRef("O", "ORDERS"),),
            predicates=(LocalPredicate("O", 0.001, "O_ORDERDATE"),),
            order_by=(("O", "O_ORDERDATE"),),
        )
        layout = StorageLayout.shared_device(query.table_names())
        center = layout.center_costs()
        cheap_random = center.perturbed({"disk.seek": 1e-6})
        plan = optimize_scalar(
            query, catalog, DEFAULT_PARAMETERS, layout, cheap_random
        )
        assert "IXSCAN(O,O_OD" in plan.signature
        assert not plan.signature.startswith("SORT(")

    def test_order_by_unsatisfied_forces_sort(self, catalog):
        query = QuerySpec(
            "unordered",
            (TableRef("O", "ORDERS"),),
            predicates=(LocalPredicate("O", 0.001, "O_ORDERDATE"),),
            order_by=(("O", "O_TOTALPRICE"),),  # no index on this
        )
        layout = StorageLayout.shared_device(query.table_names())
        plan = optimize_scalar(
            query, catalog, DEFAULT_PARAMETERS, layout,
            layout.center_costs(),
        )
        assert plan.signature.startswith("SORT(")

    def test_merge_join_exploits_clustered_pk_order(self, catalog):
        """The Q3-style MSJOIN over L_OK demonstrates interesting-order
        propagation through joins (pinned by the golden plans too)."""
        query = QuerySpec(
            "mj",
            (TableRef("O", "ORDERS"), TableRef("L", "LINEITEM")),
            joins=(JoinPredicate("O", "O_ORDERKEY", "L", "L_ORDERKEY"),),
        )
        layout = StorageLayout.shared_device(query.table_names())
        enum = PlanEnumerator(query, catalog, DEFAULT_PARAMETERS, layout)
        plans = enum.enumerate(ScalarPruner(layout.center_costs()))
        signatures = [p.signature for p in plans]
        assert any("MSJOIN" in s and "SORT(IXSCAN" not in s
                   for s in signatures) or any(
            "MSJOIN" in s for s in signatures
        )
