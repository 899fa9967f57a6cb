"""Join enumeration: Selinger-style DP over arrays, with pluggable pruning.

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
orders.  ``bushy=True`` adds hash and merge joins of two composite
subplans.  GROUP BY and ORDER BY add aggregation/sort at the root.

The DP works on arrays.  Every plan of a memo cell covers the same
aliases, so all of them share one cardinality and one tuple width, and
each operator-local usage is one vector per join step rather than one
per input plan:

* the **menu** of a step is costed once per (cell, inner alias): an
  index probe per (join column, index), the rescan, both hash builds,
  and per edge the outer sort, the inner sorts and the merge;
* the menu is **broadcast** over the input cell's row matrix ``O``:
  ``O + op`` for probes and rescans, ``(O + B) + build`` for hash
  joins and ``(SO + SI) + merge`` for merge joins, where ``SO`` and
  ``SI`` are the inputs, plus their sort where they lack the key's
  order.  Bushy steps broadcast ``(L + R) + op`` the same way.  Rows
  arrive input-row-major, then in menu order, which is the order the
  pruners' first-seen rules see;
* a memo cell holds the kept rows, their order keys and one
  **back-pointer** per row (menu and candidate index).  Plan trees,
  :class:`CostedPlan` objects and signatures are built by following
  back-pointers, for the root survivors only.

Pruning relies on plan cost being the sum of child costs plus
operator-local usage, so a componentwise-dominated subplan cannot
become part of a strictly better full plan.  The order rule the
parametric pruner applies: a kept plan prunes a newcomer when it has
the newcomer's order or none, and a newcomer evicts a kept plan when
it has the kept plan's order or none.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..catalog.statistics import Catalog
from ..core.vectors import CostVector, UsageVector, validate_usage_rows
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

#: An output order: ``(alias, column)``, or None for no order.
Order = tuple[str, str] | None


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
    """Keep the single cheapest plan per order group under a fixed C.

    Each row is scored by its own ``row @ C`` dot product, as
    :meth:`UsageVector.dot` scores one plan.
    """

    def __init__(self, cost: CostVector) -> None:
        self._cost = cost

    def prune(self, usage: np.ndarray, orders: Sequence[Order]) -> list[int]:
        """Indices of the kept rows of ``usage`` (one row per plan)."""
        cost = self._cost.values
        best: dict[Order, int] = {}
        scores: dict[Order, float] = {}
        for index, key in enumerate(orders):
            score = float(usage[index] @ cost)
            if key not in best or score < scores[key]:
                best[key] = index
                scores[key] = score
        cheapest = min(scores, key=scores.__getitem__)
        # Ordered winners survive (their order may pay off later); the
        # unordered winner survives only if it is the overall cheapest.
        return [
            index
            for key, index in best.items()
            if key is not None or cheapest is None
        ]


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

    def prune(self, usage: np.ndarray, orders: Sequence[Order]) -> list[int]:
        """Indices of the kept rows of ``usage``, in kept order."""
        size = len(orders)
        if not size:
            return []
        order_ids: dict[Order, int] = {None: 0}
        ids = [order_ids.setdefault(order, len(order_ids)) for order in orders]
        upper_rows = usage + self._tol
        # Slots [0, count) hold the kept rows in arrival order: their
        # index into ``usage``, order id, row and row + tol.
        kept = np.empty(size, dtype=np.intp)
        kept_ids = np.empty(size, dtype=np.intp)
        rows = np.empty_like(usage)
        uppers = np.empty_like(usage)
        count = 0
        for position, order in enumerate(ids):
            values = usage[position]
            upper = upper_rows[position]
            if count:
                kept_orders = kept_ids[:count]
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
                    for array in (kept, kept_ids, rows, uppers):
                        array[:new_count] = array[:count][survive]
                    count = new_count
            kept[count] = position
            kept_ids[count] = order
            rows[count] = values
            uppers[count] = upper
            count += 1
        result = kept[:count].tolist()
        if self._cap is not None and count > self._cap:
            self.truncated = True
            center = self._center.values
            result.sort(key=lambda index: float(usage[index] @ center))
            result = result[: self._cap]
        return result


# ----------------------------------------------------------------------
# Memo cells and operator menus
# ----------------------------------------------------------------------
#: Menu order meaning "the result keeps its left input's order".
_LEFT = object()


class _Cell:
    """One memo cell: the kept plans of one alias set, as arrays.

    ``links[i]`` is row ``i``'s back-pointer: a base plan's node, or
    the ``(menu, index)`` of the candidate row it was kept as.  Trees
    are built on demand, once per row, so every plan built on a row
    shares its subtree.
    """

    __slots__ = ("usage", "orders", "links", "rows", "_nodes")

    def __init__(
        self,
        usage: np.ndarray,
        orders: list,
        links: list,
        rows: float,
    ) -> None:
        self.usage = usage
        self.orders = orders
        self.links = links
        self.rows = rows
        self._nodes: dict[int, PlanNode] = {}

    def __len__(self) -> int:
        return len(self.orders)

    def subset(self, kept: list[int]) -> "_Cell":
        return _Cell(
            self.usage[kept],
            [self.orders[i] for i in kept],
            [self.links[i] for i in kept],
            self.rows,
        )

    def node(self, row: int) -> PlanNode:
        link = self.links[row]
        if isinstance(link, PlanNode):
            return link
        node = self._nodes.get(row)
        if node is None:
            menu, index = link
            node = self._nodes[row] = menu.node(index)
        return node


class _Menu:
    """The join operators from one left cell, each costed once.

    Entry ``j`` turns left row ``L`` into ``L + op[j]`` when it has no
    right input, else into ``(L' + right[j]) + op[j]``.  ``L'`` is
    ``L + sort`` when ``sort_keys[j]`` is set and the row lacks that
    order, else ``L``.  ``orders[j]`` is the result's order, or
    :data:`_LEFT` to keep the left row's.  ``specs[j]`` tells
    :meth:`node` how to build the plan tree.
    """

    def __init__(self, left: _Cell, sort: np.ndarray) -> None:
        self.left = left
        self.sort = sort
        self.ops: list[np.ndarray] = []
        self.rights: list[np.ndarray | None] = []
        self.sort_keys: list[Order] = []
        self.orders: list = []
        self.specs: list[tuple] = []

    def add(self, op, spec, order=_LEFT, right=None, sort_key=None):
        self.ops.append(op)
        self.specs.append(spec)
        self.orders.append(order)
        self.rights.append(right)
        self.sort_keys.append(sort_key)

    def candidates(self) -> tuple[np.ndarray, list]:
        """Candidate usage rows (left-row-major, then entry order) and
        their orders."""
        left = self.left.usage
        base = left[:, None, :]
        keys = self.sort_keys
        if any(key is not None for key in keys):
            ids: dict = {}
            key_ids = np.array(
                [-1 if key is None else ids.setdefault(key, len(ids))
                 for key in keys]
            )
            row_ids = np.array([ids.get(order, -2)
                                for order in self.left.orders])
            unsorted = (key_ids >= 0) & (row_ids[:, None] != key_ids)
            base = np.where(
                unsorted[:, :, None], (left + self.sort)[:, None, :], base
            )
        rights = self.rights
        has_right = [right is not None for right in rights]
        if any(has_right):
            zero = np.zeros(left.shape[1])
            summed = base + np.stack(
                [zero if right is None else right for right in rights]
            )
            base = summed if all(has_right) else np.where(
                np.array(has_right)[:, None], summed, base
            )
        usage = (base + np.stack(self.ops)).reshape(-1, left.shape[1])
        orders = [
            row_order if order is _LEFT else order
            for row_order in self.left.orders
            for order in self.orders
        ]
        return usage, orders

    def node(self, index: int) -> PlanNode:
        """The plan tree of row ``index`` of :meth:`candidates`."""
        row, entry = divmod(index, len(self.ops))
        left = self.left.node(row)
        kind, *args = self.specs[entry]
        if kind is NestedLoopJoinNode:
            leaf_type, fields = args
            return NestedLoopJoinNode(left, leaf_type(*fields))
        right_cell, right_row = args[:2]
        right = right_cell.node(right_row)
        if kind is HashJoinNode:
            build_left = args[2]
            return (
                HashJoinNode(left, right)
                if build_left
                else HashJoinNode(right, left)
            )
        left_key, right_key = args[2:]
        if self.left.orders[row] != left_key:
            left = SortNode(left, (left_key,))
        if right_cell.orders[right_row] != right_key:
            right = SortNode(right, (right_key,))
        return MergeJoinNode(left, right, left_key, right_key)


class PlanEnumerator:
    """Enumerates costed plans for one query over one storage layout."""

    def __init__(
        self,
        query: QuerySpec,
        catalog: Catalog,
        params: SystemParameters,
        layout: StorageLayout,
        bushy: bool = False,
    ) -> None:
        self.query = query
        self.model = CardinalityModel(query, catalog)
        self.costs = CostModel(catalog, params)
        self.layout = layout
        self.params = params
        self.catalog = catalog
        self._bushy = bushy
        self._base_cache: dict[str, list[CostedPlan]] = {}
        self._sides: dict[str, _Cell] = {}

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

    def _base_side(self, alias: str) -> _Cell:
        """Every access path of ``alias`` as an (unpruned) cell."""
        side = self._sides.get(alias)
        if side is None:
            plans = self.base_plans(alias)
            side = self._sides[alias] = _Cell(
                np.vstack([plan.usage.values for plan in plans]),
                [plan.order for plan in plans],
                [plan.node for plan in plans],
                plans[0].rows,
            )
        return side

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _join_menu(
        self,
        outer: _Cell,
        outer_aliases: frozenset,
        inner_alias: str,
        edges: tuple,
    ) -> _Menu:
        """All ways to join the plans of ``outer`` with ``inner_alias``."""
        query = self.query
        model = self.model
        costs = self.costs
        table = query.table_of(inner_alias)
        rows_out = model.join_rows(outer_aliases | {inner_alias})
        predicates = query.predicates_for(inner_alias)
        local_sel = model.local_selectivity(inner_alias)
        matches = model.matches_per_probe(outer_aliases, inner_alias)
        width_outer = float(model.tuple_width(outer_aliases))
        width_inner = float(model.carried_width(inner_alias))
        inner_rows = model.filtered_rows(inner_alias)
        bases = self._base_side(inner_alias)
        menu = _Menu(
            outer, self._usage(costs.sort(outer.rows, width_outer)).values
        )

        # --- index nested-loop joins ---------------------------------
        # Probes see index entries before local predicates.
        fetched_per_probe = matches / local_sel if local_sel > 0 else matches
        for column in sorted({edge.column_for(inner_alias) for edge in edges}):
            for index in self.catalog.indexes_with_leading_column(
                table, column
            ):
                index_only = self._index_covers(index.name, inner_alias)
                probes = costs.index_probes(
                    table,
                    index.name,
                    n_probes=outer.rows,
                    matches_per_probe=fetched_per_probe,
                    n_residual_predicates=len(predicates),
                    index_only=index_only,
                )
                menu.add(
                    self._usage(probes).values,
                    (
                        NestedLoopJoinNode,
                        IndexProbeNode,
                        (inner_alias, table, index.name, column, index_only),
                    ),
                )

        # --- rescan nested loops (tiny resident inners) ---------------
        if costs.fits_in_bufferpool(self.catalog.n_pages(table)):
            account = costs.rescans(table, outer.rows, len(predicates))
            account.add_cpu(rows_out * self.params.cpu_per_tuple)
            menu.add(
                self._usage(account).values,
                (NestedLoopJoinNode, TableScanNode, (inner_alias, table)),
            )

        # --- hash joins (either side builds) ---------------------------
        build_inner = self._usage(
            costs.hash_join(
                build_rows=inner_rows,
                build_width=width_inner,
                probe_rows=outer.rows,
                probe_width=width_outer,
                output_rows=rows_out,
            )
        ).values
        build_outer = self._usage(
            costs.hash_join(
                build_rows=outer.rows,
                build_width=width_outer,
                probe_rows=inner_rows,
                probe_width=width_inner,
                output_rows=rows_out,
            )
        ).values
        for row, values in enumerate(bases.usage):
            menu.add(
                build_inner, (HashJoinNode, bases, row, False),
                order=None, right=values,
            )
            menu.add(
                build_outer, (HashJoinNode, bases, row, True),
                order=None, right=values,
            )

        # --- sort-merge joins ------------------------------------------
        merge = self._usage(
            costs.merge_join(outer.rows, inner_rows, rows_out)
        ).values
        sort_inner = self._usage(costs.sort(inner_rows, width_inner)).values
        for edge in edges:
            outer_alias = edge.other(inner_alias)
            outer_key = (outer_alias, edge.column_for(outer_alias))
            inner_key = (inner_alias, edge.column_for(inner_alias))
            for row, values in enumerate(bases.usage):
                if bases.orders[row] != inner_key:
                    values = values + sort_inner
                menu.add(
                    merge,
                    (MergeJoinNode, bases, row, outer_key, inner_key),
                    order=outer_key, right=values, sort_key=outer_key,
                )
        return menu

    def _bushy_menu(
        self,
        left: _Cell,
        right: _Cell,
        left_set: frozenset,
        right_set: frozenset,
        edges: tuple,
    ) -> _Menu:
        """Join two composite subplans (bushy trees).

        Composite inners cannot be index-probed or rescanned cheaply,
        so the bushy combinations are hash join (either side builds)
        and sort-merge join per connecting edge.
        """
        model = self.model
        costs = self.costs
        rows_out = model.join_rows(left_set | right_set)
        width_left = float(model.tuple_width(left_set))
        width_right = float(model.tuple_width(right_set))
        build_left, build_right = (
            self._usage(
                costs.hash_join(
                    build_rows=build.rows,
                    build_width=build_width,
                    probe_rows=probe.rows,
                    probe_width=probe_width,
                    output_rows=rows_out,
                )
            ).values
            for build, probe, build_width, probe_width in (
                (left, right, width_left, width_right),
                (right, left, width_right, width_left),
            )
        )
        merge = self._usage(
            costs.merge_join(left.rows, right.rows, rows_out)
        ).values
        sort_right = self._usage(costs.sort(right.rows, width_right)).values
        keys = []
        for edge in edges:
            left_alias = (
                edge.left_alias
                if edge.left_alias in left_set
                else edge.right_alias
            )
            right_alias = edge.other(left_alias)
            keys.append(
                (
                    (left_alias, edge.column_for(left_alias)),
                    (right_alias, edge.column_for(right_alias)),
                )
            )
        menu = _Menu(
            left, self._usage(costs.sort(left.rows, width_left)).values
        )
        for row, values in enumerate(right.usage):
            menu.add(
                build_left, (HashJoinNode, right, row, True),
                order=None, right=values,
            )
            menu.add(
                build_right, (HashJoinNode, right, row, False),
                order=None, right=values,
            )
            for left_key, right_key in keys:
                sorted_values = (
                    values
                    if right.orders[row] == right_key
                    else values + sort_right
                )
                menu.add(
                    merge,
                    (MergeJoinNode, right, row, left_key, right_key),
                    order=left_key, right=sorted_values, sort_key=left_key,
                )
        return menu

    def _prune_cell(
        self, pruner, menus: list[_Menu], rows: float
    ) -> _Cell:
        """Prune the candidate rows of ``menus`` into one memo cell."""
        blocks = [menu.candidates() for menu in menus]
        usage = np.concatenate([block[0] for block in blocks])
        orders = [order for block in blocks for order in block[1]]
        validate_usage_rows(self.layout.space, usage)
        kept = pruner.prune(usage, orders)
        starts = list(
            itertools.accumulate(
                (len(block[1]) for block in blocks), initial=0
            )
        )
        links = []
        for index in kept:
            which = bisect.bisect_right(starts, index) - 1
            links.append((menus[which], index - starts[which]))
        return _Cell(usage[kept], [orders[i] for i in kept], links, rows)

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
        memo: dict[frozenset, _Cell] = {}
        for alias in aliases:
            side = self._base_side(alias)
            memo[frozenset({alias})] = side.subset(
                pruner.prune(side.usage, side.orders)
            )

        n = len(aliases)
        for size in range(2, n + 1):
            for subset in itertools.combinations(aliases, size):
                subset_set = frozenset(subset)
                menus: list[_Menu] = []
                for inner_alias in subset:
                    rest = subset_set - {inner_alias}
                    outer = memo.get(rest)
                    if outer is None:
                        continue
                    edges = query.joins_between(rest, {inner_alias})
                    if not edges:
                        continue  # avoid cross products
                    menus.append(
                        self._join_menu(outer, rest, inner_alias, edges)
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
                            left = memo.get(left_set)
                            right = memo.get(right_set)
                            if left is None or right is None:
                                continue
                            edges = query.joins_between(left_set, right_set)
                            if not edges:
                                continue
                            menus.append(
                                self._bushy_menu(
                                    left, right, left_set, right_set, edges
                                )
                            )
                if menus:
                    memo[subset_set] = self._prune_cell(
                        pruner, menus, self.model.join_rows(subset_set)
                    )

        root = memo.get(frozenset(aliases))
        if root is None:
            raise RuntimeError(
                f"no connected plan covers all tables of {query.name}; "
                "is the join graph connected?"
            )
        space = self.layout.space
        finalized = [
            self.finalize(
                CostedPlan(
                    root.node(row),
                    UsageVector(space, root.usage[row]),
                    root.rows,
                    order=root.orders[row],
                )
            )
            for row in range(len(root))
        ]
        kept = pruner.prune(
            np.vstack([plan.usage.values for plan in finalized]),
            [plan.order for plan in finalized],
        )
        return [finalized[index] for index in kept]


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
    layout.space.require_same(cost.space)
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
