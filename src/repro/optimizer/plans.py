"""Physical plan trees and their EXPLAIN-style signatures.

Plan nodes are immutable and carry only *structure*; costs live in the
enumerator's row matrices and, for the plans it returns, in
:class:`~repro.optimizer.dp.CostedPlan` wrappers.  Signatures are deterministic strings (DB2's EXPLAIN output
played this role in the paper: "enough information to identify each
plan uniquely", Section 7.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = [
    "PlanNode",
    "TableScanNode",
    "IndexScanNode",
    "IndexProbeNode",
    "NestedLoopJoinNode",
    "HashJoinNode",
    "MergeJoinNode",
    "SortNode",
    "AggregateNode",
]


class PlanNode:
    """Base class for physical plan operators."""

    def signature(self) -> str:
        """Deterministic plan identity string."""
        raise NotImplementedError

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def aliases(self) -> frozenset[str]:
        """All table aliases covered by this subtree."""
        covered: set[str] = set()
        for child in self.children():
            covered |= child.aliases()
        return frozenset(covered)

    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal of the subtree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.signature()


@dataclass(frozen=True)
class TableScanNode(PlanNode):
    """Full sequential scan of a base table."""

    alias: str
    table: str

    def signature(self) -> str:
        return f"TBSCAN({self.alias})"

    def aliases(self) -> frozenset[str]:
        return frozenset({self.alias})


@dataclass(frozen=True)
class IndexScanNode(PlanNode):
    """Range scan of an index driven by a sargable local predicate.

    ``index_only`` marks scans that never touch the data pages (all
    referenced columns are in the index key) — the plans whose usage
    vectors have a zero *table* component, one source of access-path
    complementary plans.
    """

    alias: str
    table: str
    index_name: str
    matched_column: str
    index_only: bool = False

    def signature(self) -> str:
        suffix = ",IXONLY" if self.index_only else ""
        return f"IXSCAN({self.alias},{self.index_name}{suffix})"

    def aliases(self) -> frozenset[str]:
        return frozenset({self.alias})


@dataclass(frozen=True)
class IndexProbeNode(PlanNode):
    """Inner side of an index nested-loop join: repeated B-tree probes."""

    alias: str
    table: str
    index_name: str
    join_column: str
    index_only: bool = False

    def signature(self) -> str:
        suffix = ",IXONLY" if self.index_only else ""
        return f"IXPROBE({self.alias},{self.index_name}{suffix})"

    def aliases(self) -> frozenset[str]:
        return frozenset({self.alias})


@dataclass(frozen=True)
class NestedLoopJoinNode(PlanNode):
    """Nested-loop join; the inner is a probe or a rescanned access path."""

    outer: PlanNode
    inner: PlanNode

    def signature(self) -> str:
        return f"NLJOIN({self.outer.signature()},{self.inner.signature()})"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.outer, self.inner)


@dataclass(frozen=True)
class HashJoinNode(PlanNode):
    """Hash join: build on the first child, probe with the second."""

    build: PlanNode
    probe: PlanNode

    def signature(self) -> str:
        return f"HSJOIN({self.build.signature()},{self.probe.signature()})"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.build, self.probe)


@dataclass(frozen=True)
class MergeJoinNode(PlanNode):
    """Sort-merge join of two inputs ordered on the join columns."""

    left: PlanNode
    right: PlanNode
    left_key: tuple[str, str]
    right_key: tuple[str, str]

    def signature(self) -> str:
        return f"MSJOIN({self.left.signature()},{self.right.signature()})"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class SortNode(PlanNode):
    """Explicit sort enforcer (possibly external, via temp space)."""

    child: PlanNode
    keys: tuple[tuple[str, str], ...]

    def signature(self) -> str:
        keys = "+".join(f"{alias}.{column}" for alias, column in self.keys)
        return f"SORT({self.child.signature()},{keys})"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass(frozen=True)
class AggregateNode(PlanNode):
    """Grouping/aggregation operator (hash-based)."""

    child: PlanNode
    group_keys: tuple[tuple[str, str], ...]

    def signature(self) -> str:
        return f"GRPBY({self.child.signature()})"

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)
