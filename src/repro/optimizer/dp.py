"""Join enumeration: Selinger-style DP with pluggable pruning.

One enumerator serves two modes:

* **Scalar mode** (:class:`ScalarPruner`) — classic dynamic programming
  under a fixed cost vector; this is what the black-box facade runs on
  every ``optimize(C)`` call, mirroring how the paper re-ran the DB2
  optimizer at every sampled cost vector.
* **Parametric mode** (:class:`ParetoPruner`) — per-subproblem sets of
  vector-wise undominated plans; LP filtering
  (:mod:`repro.core.candidates`) of the root set then yields the
  candidate optimal plan set, the white-box counterpart of what the
  paper extracted from DB2 by probing.  Componentwise domination
  between plans with the same output order is sound for any positive
  cost vector under the additive cost model.  The pruner also lets an
  *unordered* plan prune an *ordered* one, which is not: the ordered
  plan may still win higher up by saving a sort.  So a root set,
  even an untruncated one, can miss plans that are optimal somewhere
  (see :class:`ParetoPruner`).

The plan space: left-linear join trees over connected subgraphs, with
table scans / index range scans / index-only scans as access paths,
index nested-loop joins (with buffer-pool-aware probe costs), rescan
nested loops for buffer-pool-resident inners, hash joins with either
side as build, and sort-merge joins with sort enforcers and interesting
orders.  GROUP BY and ORDER BY add aggregation/sort at the root.

Pruning relies on plan cost being the sum of child costs plus
operator-local usage, so a componentwise-dominated subplan cannot
become part of a strictly better full plan.  The order rule the
parametric pruner applies: a kept plan prunes a newcomer when it has
the newcomer's order or none, and a newcomer evicts a kept plan when
it has the kept plan's order or none.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..catalog.statistics import Catalog
from ..core.vectors import CostVector, UsageVector
from ..storage.layout import IOAccount, StorageLayout
from .config import SystemParameters
from .operators import CostModel
from .plans import (
    AggregateNode,
    HashJoinNode,
    IndexProbeNode,
    IndexScanNode,
    MergeJoinNode,
    NestedLoopJoinNode,
    PlanNode,
    SortNode,
    TableScanNode,
)
from .query import QuerySpec
from .selectivity import CardinalityModel

__all__ = [
    "CostedPlan",
    "ScalarPruner",
    "ParetoPruner",
    "PlanEnumerator",
    "optimize_scalar",
    "enumerate_root_plans",
]


@dataclass
class CostedPlan:
    """A plan with its usage vector, cardinality and output order."""

    node: PlanNode
    usage: UsageVector
    rows: float
    order: tuple[str, str] | None = None

    @property
    def signature(self) -> str:
        return self.node.signature()


class ScalarPruner:
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
        if cheapest not in kept:  # pragma: no cover - defensive
            kept.append(cheapest)
        return kept


class ParetoPruner:
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


class PlanEnumerator:
    """Enumerates costed plans for one query over one storage layout."""

    def __init__(
        self,
        query: QuerySpec,
        catalog: Catalog,
        params: SystemParameters,
        layout: StorageLayout,
        include_rescans: bool = True,
        include_order_scans: bool = True,
        bushy: bool = False,
    ) -> None:
        self.query = query
        self.model = CardinalityModel(query, catalog)
        self.costs = CostModel(catalog, params)
        self.layout = layout
        self.params = params
        self.catalog = catalog
        self._include_rescans = include_rescans
        self._include_order_scans = include_order_scans
        self._bushy = bushy
        self._base_cache: dict[str, list[CostedPlan]] = {}

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _usage(self, account: IOAccount) -> UsageVector:
        return self.layout.to_usage(account)

    def _needed_columns(self, alias: str) -> set[str]:
        """Columns of ``alias`` the rest of the plan must see."""
        needed: set[str] = set()
        for join in self.query.joins:
            if alias in join.aliases():
                needed.add(join.column_for(alias))
        for predicate in self.query.predicates_for(alias):
            if predicate.column is not None:
                needed.add(predicate.column)
            else:
                # Residual predicate over unspecified columns: the full
                # row is required, no index-only access.
                needed.add("*")
        for clause_alias, column in (
            tuple(self.query.group_by) + tuple(self.query.order_by)
        ):
            if clause_alias == alias:
                needed.add(column)
        return needed

    def _index_covers(self, index_name: str, alias: str) -> bool:
        index = self.catalog.index(index_name)
        needed = self._needed_columns(alias)
        return "*" not in needed and needed <= set(index.key_columns)

    def _join_columns(self, alias: str) -> set[str]:
        return {
            join.column_for(alias)
            for join in self.query.joins
            if alias in join.aliases()
        }

    # ------------------------------------------------------------------
    # Base access paths
    # ------------------------------------------------------------------
    def base_plans(self, alias: str) -> list[CostedPlan]:
        """All access paths for one alias (cached)."""
        cached = self._base_cache.get(alias)
        if cached is not None:
            return cached
        query = self.query
        table = query.table_of(alias)
        rows_out = self.model.filtered_rows(alias)
        predicates = query.predicates_for(alias)
        plans: list[CostedPlan] = []

        scan = self.costs.table_scan(table, len(predicates), rows_out)
        plans.append(
            CostedPlan(
                TableScanNode(alias, table),
                self._usage(scan.account),
                rows_out,
            )
        )

        # Index range scans driven by sargable predicates.
        for predicate in predicates:
            if predicate.column is None:
                continue
            for index in self.catalog.indexes_with_leading_column(
                table, predicate.column
            ):
                index_only = self._index_covers(index.name, alias)
                result = self.costs.index_scan(
                    table,
                    index.name,
                    matched_selectivity=predicate.selectivity,
                    n_residual_predicates=len(predicates) - 1,
                    output_rows=rows_out,
                    index_only=index_only,
                )
                node = IndexScanNode(
                    alias, table, index.name, predicate.column, index_only
                )
                plans.append(
                    CostedPlan(
                        node,
                        self._usage(result.account),
                        rows_out,
                        order=(alias, predicate.column),
                    )
                )

        # Full index scans that deliver an interesting order on a join
        # column (feeding merge joins without a sort).
        if self._include_order_scans:
            existing = {plan.signature for plan in plans}
            for column in sorted(self._join_columns(alias)):
                for index in self.catalog.indexes_with_leading_column(
                    table, column
                ):
                    index_only = self._index_covers(index.name, alias)
                    node = IndexScanNode(
                        alias, table, index.name, column, index_only
                    )
                    if node.signature() in existing:
                        continue
                    result = self.costs.index_scan(
                        table,
                        index.name,
                        matched_selectivity=1.0,
                        n_residual_predicates=len(predicates),
                        output_rows=rows_out,
                        index_only=index_only,
                    )
                    plans.append(
                        CostedPlan(
                            node,
                            self._usage(result.account),
                            rows_out,
                            order=(alias, column),
                        )
                    )
        self._base_cache[alias] = plans
        return plans

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
        if self._include_rescans and costs.fits_in_bufferpool(table_pages):
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
    # Root enforcers
    # ------------------------------------------------------------------
    def finalize(self, plan: CostedPlan) -> CostedPlan:
        """Apply GROUP BY aggregation and the final ORDER BY sort."""
        query = self.query
        model = self.model
        result = plan
        if query.group_by:
            groups = model.group_count()
            width = float(model.tuple_width(query.aliases))
            usage = result.usage + self._usage(
                self.costs.aggregate(result.rows, width, groups)
            )
            result = CostedPlan(
                AggregateNode(result.node, tuple(query.group_by)),
                usage,
                groups,
                order=None,
            )
        if query.order_by:
            keys = tuple(query.order_by)
            already = (
                len(keys) == 1
                and result.order == keys[0]
                and not query.group_by
            )
            if not already:
                width = float(model.tuple_width(query.aliases))
                usage = result.usage + self._usage(
                    self.costs.sort(result.rows, width)
                )
                result = CostedPlan(
                    SortNode(result.node, keys),
                    usage,
                    result.rows,
                    order=keys[0],
                )
        return result

    # ------------------------------------------------------------------
    # The DP driver
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


# ----------------------------------------------------------------------
# Convenience entry points
# ----------------------------------------------------------------------
def optimize_scalar(
    query: QuerySpec,
    catalog: Catalog,
    params: SystemParameters,
    layout: StorageLayout,
    cost: CostVector,
    bushy: bool = False,
) -> CostedPlan:
    """Classic optimization under a fixed cost vector.

    Returns the cheapest finalized plan; deterministic tie-breaking by
    plan signature.  ``bushy`` widens the search to bushy join trees.
    """
    enumerator = PlanEnumerator(query, catalog, params, layout, bushy=bushy)
    plans = enumerator.enumerate(ScalarPruner(cost))
    return min(plans, key=lambda p: (p.usage.dot(cost), p.signature))


def enumerate_root_plans(
    query: QuerySpec,
    catalog: Catalog,
    params: SystemParameters,
    layout: StorageLayout,
    cell_cap: int | None = 64,
    tol: float = 1e-9,
    bushy: bool = False,
) -> tuple[list[CostedPlan], bool]:
    """Parametric enumeration: the root Pareto set of plans.

    Returns ``(plans, truncated)``.  ``truncated`` is True when a cell
    hit ``cell_cap``.  Even untruncated, the list holds only what the
    pruner's order rule keeps, which can miss plans optimal somewhere
    (see :class:`ParetoPruner`).  LP-filter it against a feasible
    region to obtain the candidate optimal set (see
    :func:`repro.optimizer.parametric.candidate_plans`).
    """
    center = layout.center_costs()
    pruner = ParetoPruner(tol=tol, cell_cap=cell_cap, center=center)
    enumerator = PlanEnumerator(query, catalog, params, layout, bushy=bushy)
    plans = enumerator.enumerate(pruner)
    return plans, pruner.truncated
