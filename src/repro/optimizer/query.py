"""Structured query specifications consumed by the optimizer.

The optimizer does not parse SQL; it consumes a :class:`QuerySpec` — a
join graph with selectivities, which is exactly the information that
determines plan choice under the paper's assumptions (Section 3.3: the
optimizer's selectivity and cardinality estimates are taken to be
accurate; only resource *costs* are in question).

A :class:`QuerySpec` supports self-joins through aliases, local
predicates with optional sargable columns (enabling index access
paths), equi-join edges with optional explicit selectivities, and
GROUP BY / ORDER BY clauses that force aggregation and sort operators
into the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

__all__ = ["TableRef", "LocalPredicate", "JoinPredicate", "QuerySpec"]


@dataclass(frozen=True)
class TableRef:
    """A table reference with an alias (supports self-joins)."""

    alias: str
    table: str

    def __post_init__(self) -> None:
        if not self.alias or not self.table:
            raise ValueError("alias and table must be non-empty")


@dataclass(frozen=True)
class LocalPredicate:
    """A single-table predicate with a known selectivity.

    ``column`` names the sargable column when the predicate is a
    range/equality on one column (making matching indexes usable);
    ``None`` marks residual predicates (LIKE on the middle of a string,
    expressions over two columns, flattened-subquery filters) that can
    only be applied after rows are fetched.
    """

    alias: str
    selectivity: float
    column: str | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.selectivity <= 1.0:
            raise ValueError(
                f"selectivity must be in (0, 1], got {self.selectivity}"
            )

    @property
    def sargable(self) -> bool:
        return self.column is not None


@dataclass(frozen=True)
class JoinPredicate:
    """An equi-join edge between two aliases.

    ``selectivity`` overrides the default ``1 / max(distinct values)``
    estimate when given (used for flattened subqueries and semi-joins
    whose selectivities the standard formula does not capture).
    """

    left_alias: str
    left_column: str
    right_alias: str
    right_column: str
    selectivity: float | None = None

    def __post_init__(self) -> None:
        if self.left_alias == self.right_alias:
            raise ValueError("join edge must connect two different aliases")
        if self.selectivity is not None and not 0.0 < self.selectivity <= 1.0:
            raise ValueError("join selectivity must be in (0, 1]")

    def aliases(self) -> frozenset[str]:
        return frozenset((self.left_alias, self.right_alias))

    def column_for(self, alias: str) -> str:
        if alias == self.left_alias:
            return self.left_column
        if alias == self.right_alias:
            return self.right_column
        raise KeyError(f"alias {alias!r} not part of this join edge")

    def other(self, alias: str) -> str:
        if alias == self.left_alias:
            return self.right_alias
        if alias == self.right_alias:
            return self.left_alias
        raise KeyError(f"alias {alias!r} not part of this join edge")


@dataclass(frozen=True)
class QuerySpec:
    """A complete query: join graph, predicates, and output clauses."""

    name: str
    tables: tuple[TableRef, ...]
    joins: tuple[JoinPredicate, ...] = ()
    predicates: tuple[LocalPredicate, ...] = ()
    group_by: tuple[tuple[str, str], ...] = ()
    order_by: tuple[tuple[str, str], ...] = ()
    #: Bytes each alias contributes to intermediate tuples (defaults to
    #: a quarter of the row width, clamped to [8, 64], in the
    #: cardinality model).
    carried_width: Mapping[str, int] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        if not self.tables:
            raise ValueError("query must reference at least one table")
        aliases = [ref.alias for ref in self.tables]
        if len(set(aliases)) != len(aliases):
            raise ValueError(f"duplicate aliases in query {self.name}")
        known = set(aliases)
        for join in self.joins:
            for alias in join.aliases():
                if alias not in known:
                    raise ValueError(
                        f"join references unknown alias {alias!r} "
                        f"in query {self.name}"
                    )
        for predicate in self.predicates:
            if predicate.alias not in known:
                raise ValueError(
                    f"predicate references unknown alias "
                    f"{predicate.alias!r} in query {self.name}"
                )
        for alias, __ in tuple(self.group_by) + tuple(self.order_by):
            if alias not in known:
                raise ValueError(
                    f"group/order clause references unknown alias {alias!r}"
                )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def aliases(self) -> tuple[str, ...]:
        return tuple(ref.alias for ref in self.tables)

    def table_of(self, alias: str) -> str:
        for ref in self.tables:
            if ref.alias == alias:
                return ref.table
        raise KeyError(f"unknown alias {alias!r}")

    def table_names(self) -> tuple[str, ...]:
        """Distinct underlying tables, in first-reference order."""
        seen: dict[str, None] = {}
        for ref in self.tables:
            seen.setdefault(ref.table)
        return tuple(seen)

    def predicates_for(self, alias: str) -> tuple[LocalPredicate, ...]:
        return tuple(p for p in self.predicates if p.alias == alias)

    def joins_between(
        self, left: Iterable[str], right: Iterable[str]
    ) -> tuple[JoinPredicate, ...]:
        """Edges with one endpoint in ``left`` and the other in ``right``."""
        left_set, right_set = set(left), set(right)
        result = []
        for join in self.joins:
            a, b = join.left_alias, join.right_alias
            if (a in left_set and b in right_set) or (
                a in right_set and b in left_set
            ):
                result.append(join)
        return tuple(result)

    def joins_within(self, aliases: Iterable[str]) -> tuple[JoinPredicate, ...]:
        """Edges with both endpoints inside ``aliases``."""
        subset = set(aliases)
        return tuple(
            join for join in self.joins if join.aliases() <= subset
        )

    # ------------------------------------------------------------------
    # Join graph
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """True if the join graph has no cross products."""
        reached = {self.aliases[0]}
        grew = True
        while grew:
            grew = False
            for join in self.joins:
                ends = join.aliases()
                if len(ends & reached) == 1:
                    reached |= ends
                    grew = True
        return len(reached) == len(self.tables)

    @property
    def has_aggregation(self) -> bool:
        return bool(self.group_by)

    @property
    def has_final_sort(self) -> bool:
        return bool(self.order_by)
