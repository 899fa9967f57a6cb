"""The array-level enumerator against the object-level one it replaced.

``PlanEnumerator`` costs each join operator once per (memo cell, inner
alias), broadcasts it over the cell's row matrix and builds plan trees
only for root survivors.  The classes below are the enumerator and
pruners it replaced, kept verbatim as the oracle: one ``CostedPlan``,
one ``UsageVector`` and one plan node per candidate.  Both must return
the same root sets, in the same order, bit for bit, and the same
truncation flag; scalar mode must pick the same plan with the same
usage bytes.

The enumeration golden pins seed 0 of the generated census and the
TPC-H sets without bushy trees, so the draws here come from other
seeds, every scenario, three cell caps and both tree shapes.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import build_tpch_catalog
from repro.core.vectors import CostVector
from repro.experiments.scenarios import SCENARIO_KEYS, scenario
from repro.optimizer.config import DEFAULT_PARAMETERS
from repro.optimizer.dp import (
    CostedPlan,
    PlanEnumerator,
    ScalarPruner,
    enumerate_root_plans,
    optimize_scalar,
)
from repro.optimizer.plans import (
    HashJoinNode,
    IndexProbeNode,
    MergeJoinNode,
    NestedLoopJoinNode,
    SortNode,
    TableScanNode,
)
from repro.workloads.generator import generated_task
from repro.workloads.tpch_queries import tpch_query


class ObjectScalarPruner:
    """Keep the single cheapest plan per order group under a fixed C."""

    def __init__(self, cost: CostVector) -> None:
        self._cost = cost

    def prune(self, plans: list[CostedPlan]) -> list[CostedPlan]:
        best: dict[tuple[str, str] | None, CostedPlan] = {}
        scores: dict[tuple[str, str] | None, float] = {}
        for plan in plans:
            score = plan.usage.dot(self._cost)
            key = plan.order
            if key not in best or score < scores[key]:
                best[key] = plan
                scores[key] = score
        winners = list(best.values())
        cheapest = min(winners, key=lambda p: p.usage.dot(self._cost))
        # Ordered winners survive (their order may pay off later); the
        # unordered winner survives only if it is the overall cheapest.
        kept = [
            plan
            for plan in winners
            if plan.order is not None or plan is cheapest
        ]
        return kept


class ObjectParetoPruner:
    """Keep vector-wise undominated plans, under the order rule below.

    Plan *a* prunes plan *b* when ``a.usage <= b.usage + tol``
    componentwise and *a* is unordered or has *b*'s order.  The rule
    applies both ways as plans arrive: a newcomer is dropped when a
    kept plan prunes it, and otherwise evicts every kept plan it
    prunes.  Componentwise-equal plans keep the first seen
    (deduplication).

    The rule lets an unordered plan prune an ordered one.  That is
    not sound: the ordered plan can still win later by saving a sort
    or enabling a merge join, so root sets can miss plans that are
    optimal somewhere (``tests/optimizer/test_dp.py`` pins a witness).

    Kept plans live in a stacked row matrix with small-int order ids
    (0 for no order), so each newcomer is decided by two broadcasts
    over all kept rows rather than one comparison per kept plan.

    ``cell_cap`` bounds per-cell set sizes; on overflow the cheapest
    plans under ``center`` survive and :attr:`truncated` is set, so
    callers can report possibly-incomplete candidate sets (the paper
    hit the analogous wall: Section 8.2 covers only 16 of 22 queries in
    its hardest configuration).
    """

    def __init__(
        self,
        tol: float = 1e-9,
        cell_cap: int | None = None,
        center: CostVector | None = None,
    ) -> None:
        if cell_cap is not None and center is None:
            raise ValueError("cell_cap requires a center cost vector")
        self._tol = tol
        self._cap = cell_cap
        self._center = center
        self.truncated = False

    def prune(self, plans: list[CostedPlan]) -> list[CostedPlan]:
        if not plans:
            return []
        tol = self._tol
        order_ids: dict[tuple[str, str] | None, int] = {None: 0}
        size = len(plans)
        # Slots [0, count) hold the kept plans in arrival order: their
        # index into ``plans``, order id, usage row and row + tol.
        kept = np.empty(size, dtype=np.intp)
        orders = np.empty(size, dtype=np.intp)
        rows = np.empty((size, plans[0].usage.space.dimension))
        uppers = np.empty_like(rows)
        count = 0
        for position, plan in enumerate(plans):
            values = plan.usage.values
            upper = values + tol
            order = order_ids.setdefault(plan.order, len(order_ids))
            if count:
                kept_orders = orders[:count]
                # Kept plans that prune the newcomer.
                pruning = (rows[:count] <= upper).all(axis=1)
                pruning &= (kept_orders == 0) | (kept_orders == order)
                if pruning.any():
                    continue
                # Kept plans the newcomer prunes.
                evicted = (values <= uppers[:count]).all(axis=1)
                if order:
                    evicted &= kept_orders == order
                if evicted.any():
                    survive = ~evicted
                    new_count = int(survive.sum())
                    for array in (kept, orders, rows, uppers):
                        array[:new_count] = array[:count][survive]
                    count = new_count
            kept[count] = position
            orders[count] = order
            rows[count] = values
            uppers[count] = upper
            count += 1
        result = [plans[i] for i in kept[:count]]
        if self._cap is not None and count > self._cap:
            self.truncated = True
            result.sort(key=lambda p: p.usage.dot(self._center))
            result = result[: self._cap]
        return result


class ObjectEnumerator(PlanEnumerator):
    """The object-level join enumeration (access paths and root
    enforcers are shared with :class:`PlanEnumerator`)."""

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _sorted_variant(
        self, plan: CostedPlan, key: tuple[str, str], width: float
    ) -> CostedPlan:
        """Wrap ``plan`` in a sort on ``key`` (no-op if already ordered)."""
        if plan.order == key:
            return plan
        usage = plan.usage + self._usage(self.costs.sort(plan.rows, width))
        return CostedPlan(
            SortNode(plan.node, (key,)), usage, plan.rows, order=key
        )

    def join_plans(
        self, outer: CostedPlan, outer_aliases: frozenset, inner_alias: str
    ) -> list[CostedPlan]:
        """All ways to join ``outer`` with base table ``inner_alias``."""
        query = self.query
        model = self.model
        costs = self.costs
        table = query.table_of(inner_alias)
        edges = query.joins_between(outer_aliases, {inner_alias})
        if not edges:
            return []
        combined = outer_aliases | {inner_alias}
        rows_out = model.join_rows(combined)
        predicates = query.predicates_for(inner_alias)
        local_sel = model.local_selectivity(inner_alias)
        matches = model.matches_per_probe(outer_aliases, inner_alias)
        plans: list[CostedPlan] = []

        # --- index nested-loop joins ---------------------------------
        inner_join_columns = {edge.column_for(inner_alias) for edge in edges}
        for column in sorted(inner_join_columns):
            for index in self.catalog.indexes_with_leading_column(
                table, column
            ):
                index_only = self._index_covers(index.name, inner_alias)
                # Probes see index entries before local predicates.
                fetched_per_probe = (
                    matches / local_sel if local_sel > 0 else matches
                )
                op_usage = self._usage(
                    costs.index_probes(
                        table,
                        index.name,
                        n_probes=outer.rows,
                        matches_per_probe=fetched_per_probe,
                        n_residual_predicates=len(predicates),
                        index_only=index_only,
                    )
                )
                node = NestedLoopJoinNode(
                    outer.node,
                    IndexProbeNode(
                        inner_alias, table, index.name, column, index_only
                    ),
                )
                plans.append(
                    CostedPlan(
                        node,
                        outer.usage + op_usage,
                        rows_out,
                        order=outer.order,
                    )
                )

        # --- rescan nested loops (tiny resident inners) ---------------
        table_pages = self.catalog.n_pages(table)
        if costs.fits_in_bufferpool(table_pages):
            account = costs.rescans(table, outer.rows, len(predicates))
            account.add_cpu(rows_out * self.params.cpu_per_tuple)
            node = NestedLoopJoinNode(
                outer.node, TableScanNode(inner_alias, table)
            )
            plans.append(
                CostedPlan(
                    node,
                    outer.usage + self._usage(account),
                    rows_out,
                    order=outer.order,
                )
            )

        # --- hash joins (either side builds) ---------------------------
        width_outer = float(model.tuple_width(outer_aliases))
        width_inner = float(model.carried_width(inner_alias))
        inner_rows = model.filtered_rows(inner_alias)
        for base in self.base_plans(inner_alias):
            build_inner = self._usage(
                costs.hash_join(
                    build_rows=inner_rows,
                    build_width=width_inner,
                    probe_rows=outer.rows,
                    probe_width=width_outer,
                    output_rows=rows_out,
                )
            )
            plans.append(
                CostedPlan(
                    HashJoinNode(base.node, outer.node),
                    outer.usage + base.usage + build_inner,
                    rows_out,
                    order=None,
                )
            )
            build_outer = self._usage(
                costs.hash_join(
                    build_rows=outer.rows,
                    build_width=width_outer,
                    probe_rows=inner_rows,
                    probe_width=width_inner,
                    output_rows=rows_out,
                )
            )
            plans.append(
                CostedPlan(
                    HashJoinNode(outer.node, base.node),
                    outer.usage + base.usage + build_outer,
                    rows_out,
                    order=None,
                )
            )

        # --- sort-merge joins ------------------------------------------
        for edge in edges:
            outer_alias = edge.other(inner_alias)
            outer_key = (outer_alias, edge.column_for(outer_alias))
            inner_key = (inner_alias, edge.column_for(inner_alias))
            sorted_outer = self._sorted_variant(outer, outer_key, width_outer)
            merge_usage = None
            for base in self.base_plans(inner_alias):
                sorted_inner = self._sorted_variant(
                    base, inner_key, width_inner
                )
                if merge_usage is None:
                    merge_usage = self._usage(
                        costs.merge_join(
                            sorted_outer.rows, sorted_inner.rows, rows_out
                        )
                    )
                node = MergeJoinNode(
                    sorted_outer.node,
                    sorted_inner.node,
                    outer_key,
                    inner_key,
                )
                plans.append(
                    CostedPlan(
                        node,
                        sorted_outer.usage + sorted_inner.usage + merge_usage,
                        rows_out,
                        order=outer_key,
                    )
                )
        return plans

    def bushy_join_plans(
        self,
        left: CostedPlan,
        right: CostedPlan,
        left_set: frozenset,
        right_set: frozenset,
    ) -> list[CostedPlan]:
        """Join two composite subplans (bushy trees).

        Composite inners cannot be index-probed or rescanned cheaply,
        so the bushy combinations are hash join (either side builds)
        and sort-merge join per connecting edge.
        """
        query = self.query
        model = self.model
        costs = self.costs
        edges = query.joins_between(left_set, right_set)
        if not edges:
            return []
        rows_out = model.join_rows(left_set | right_set)
        width_left = float(model.tuple_width(left_set))
        width_right = float(model.tuple_width(right_set))
        plans: list[CostedPlan] = []
        for build, probe, build_width, probe_width in (
            (left, right, width_left, width_right),
            (right, left, width_right, width_left),
        ):
            usage = self._usage(
                costs.hash_join(
                    build_rows=build.rows,
                    build_width=build_width,
                    probe_rows=probe.rows,
                    probe_width=probe_width,
                    output_rows=rows_out,
                )
            )
            plans.append(
                CostedPlan(
                    HashJoinNode(build.node, probe.node),
                    build.usage + probe.usage + usage,
                    rows_out,
                    order=None,
                )
            )
        for edge in edges:
            left_alias = (
                edge.left_alias
                if edge.left_alias in left_set
                else edge.right_alias
            )
            right_alias = edge.other(left_alias)
            left_key = (left_alias, edge.column_for(left_alias))
            right_key = (right_alias, edge.column_for(right_alias))
            sorted_left = self._sorted_variant(left, left_key, width_left)
            sorted_right = self._sorted_variant(
                right, right_key, width_right
            )
            merge_usage = self._usage(
                costs.merge_join(
                    sorted_left.rows, sorted_right.rows, rows_out
                )
            )
            plans.append(
                CostedPlan(
                    MergeJoinNode(
                        sorted_left.node,
                        sorted_right.node,
                        left_key,
                        right_key,
                    ),
                    sorted_left.usage + sorted_right.usage + merge_usage,
                    rows_out,
                    order=left_key,
                )
            )
        return plans

    # ------------------------------------------------------------------
    # The DP loop
    # ------------------------------------------------------------------
    def enumerate(self, pruner) -> list[CostedPlan]:
        """Run the DP and return finalized, pruned root plans."""
        query = self.query
        # Canonical enumeration order: iterating the alias frozenset
        # directly would order subsets (and therefore plan generation
        # and equal-cost tie-breaks) by randomized string hashes.
        aliases = sorted(query.aliases)
        memo: dict[frozenset, list[CostedPlan]] = {}
        for alias in aliases:
            memo[frozenset({alias})] = pruner.prune(self.base_plans(alias))

        n = len(aliases)
        for size in range(2, n + 1):
            for subset in itertools.combinations(aliases, size):
                subset_set = frozenset(subset)
                cell: list[CostedPlan] = []
                for inner_alias in subset:
                    rest = subset_set - {inner_alias}
                    rest_plans = memo.get(rest)
                    if not rest_plans:
                        continue
                    if not query.joins_between(rest, {inner_alias}):
                        continue  # avoid cross products
                    for outer in rest_plans:
                        cell.extend(
                            self.join_plans(outer, rest, inner_alias)
                        )
                if self._bushy and size >= 4:
                    # Proper partitions with both sides >= 2 aliases;
                    # anchoring the first alias to the left side avoids
                    # enumerating each partition twice.
                    anchor, *others = subset
                    for left_size in range(1, size - 2):
                        for chosen in itertools.combinations(
                            others, left_size
                        ):
                            left_set = frozenset((anchor, *chosen))
                            right_set = subset_set - left_set
                            left_plans = memo.get(left_set)
                            right_plans = memo.get(right_set)
                            if not left_plans or not right_plans:
                                continue
                            if not query.joins_between(
                                left_set, right_set
                            ):
                                continue
                            for left in left_plans:
                                for right in right_plans:
                                    cell.extend(
                                        self.bushy_join_plans(
                                            left, right,
                                            left_set, right_set,
                                        )
                                    )
                if cell:
                    memo[subset_set] = pruner.prune(cell)

        full = frozenset(aliases)
        root_plans = memo.get(full, [])
        if not root_plans:
            if n == 1:
                root_plans = memo[frozenset({aliases[0]})]
            else:
                raise RuntimeError(
                    f"no connected plan covers all tables of {query.name}; "
                    "is the join graph connected?"
                )
        finalized = [self.finalize(plan) for plan in root_plans]
        return pruner.prune(finalized)


def _oracle_root_plans(query, catalog, layout, cell_cap, bushy):
    center = layout.center_costs()
    pruner = ObjectParetoPruner(tol=1e-9, cell_cap=cell_cap, center=center)
    enumerator = ObjectEnumerator(
        query, catalog, DEFAULT_PARAMETERS, layout, bushy=bushy
    )
    plans = enumerator.enumerate(pruner)
    return plans, pruner.truncated


def _oracle_scalar(query, catalog, layout, cost, bushy):
    """The scalar root set, and the plan ``optimize_scalar`` picks."""
    enumerator = ObjectEnumerator(
        query, catalog, DEFAULT_PARAMETERS, layout, bushy=bushy
    )
    plans = enumerator.enumerate(ObjectScalarPruner(cost))
    return plans, min(plans, key=lambda p: (p.usage.dot(cost), p.signature))


def _fields(plans):
    return [
        (plan.signature, plan.order, plan.rows, plan.usage.values.tobytes())
        for plan in plans
    ]


def _check(query, catalog, layout, cell_cap, bushy, cost_rng):
    plans, truncated = enumerate_root_plans(
        query, catalog, DEFAULT_PARAMETERS, layout,
        cell_cap=cell_cap, bushy=bushy,
    )
    expected, expected_truncated = _oracle_root_plans(
        query, catalog, layout, cell_cap, bushy
    )
    assert truncated == expected_truncated
    assert _fields(plans) == _fields(expected)
    center = layout.center_costs().values
    for __ in range(3):
        factors = 10.0 ** cost_rng.uniform(-2.0, 2.0, center.size)
        cost = CostVector(layout.space, center * factors)
        roots = PlanEnumerator(
            query, catalog, DEFAULT_PARAMETERS, layout, bushy=bushy
        ).enumerate(ScalarPruner(cost))
        chosen = optimize_scalar(
            query, catalog, DEFAULT_PARAMETERS, layout, cost, bushy=bushy
        )
        expected_roots, best = _oracle_scalar(
            query, catalog, layout, cost, bushy
        )
        assert _fields(roots) == _fields(expected_roots)
        assert _fields([chosen]) == _fields([best])


@given(
    seed=st.integers(1, 2**31 - 1),
    index=st.integers(0, 999),
    key=st.sampled_from(SCENARIO_KEYS),
    cell_cap=st.sampled_from([None, 4, 16]),
    bushy=st.booleans(),
    cost_seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=100, deadline=None)
def test_generated_sets_match_the_object_enumerator(
    seed, index, key, cell_cap, bushy, cost_seed
):
    catalog, query = generated_task(seed, index)
    layout = scenario(key).layout_for(query)
    _check(
        query, catalog, layout, cell_cap, bushy,
        np.random.default_rng(cost_seed),
    )


@pytest.mark.parametrize(
    "name,key", [("Q5", "colocated"), ("Q7", "split"), ("Q9", "shared")]
)
def test_bushy_tpch_sets_match_the_object_enumerator(name, key):
    """Bushy trees over six tables (generated queries have two to
    four), at a cap that truncates all three sets."""
    catalog = build_tpch_catalog()
    query = tpch_query(name, catalog)
    layout = scenario(key).layout_for(query)
    _check(query, catalog, layout, 16, True, np.random.default_rng(0))
