"""Tests for repro.optimizer.query."""

import pytest

from repro.optimizer.query import (
    JoinPredicate,
    LocalPredicate,
    QuerySpec,
    TableRef,
)


def _chain_query():
    return QuerySpec(
        name="chain",
        tables=(
            TableRef("A", "T1"),
            TableRef("B", "T2"),
            TableRef("C", "T3"),
        ),
        joins=(
            JoinPredicate("A", "X", "B", "Y"),
            JoinPredicate("B", "Y", "C", "Z"),
        ),
        predicates=(LocalPredicate("A", 0.1, "X"),),
    )


class TestValidation:
    def test_duplicate_aliases_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            QuerySpec(
                "q", (TableRef("A", "T1"), TableRef("A", "T2"))
            )

    def test_unknown_alias_in_join_rejected(self):
        with pytest.raises(ValueError, match="unknown alias"):
            QuerySpec(
                "q",
                (TableRef("A", "T1"),),
                joins=(JoinPredicate("A", "X", "B", "Y"),),
            )

    def test_unknown_alias_in_predicate_rejected(self):
        with pytest.raises(ValueError, match="unknown alias"):
            QuerySpec(
                "q",
                (TableRef("A", "T1"),),
                predicates=(LocalPredicate("Z", 0.5),),
            )

    def test_unknown_alias_in_clauses_rejected(self):
        with pytest.raises(ValueError, match="unknown alias"):
            QuerySpec(
                "q", (TableRef("A", "T1"),), group_by=(("Z", "X"),)
            )

    def test_empty_tables_rejected(self):
        with pytest.raises(ValueError):
            QuerySpec("q", ())

    def test_selectivity_bounds(self):
        with pytest.raises(ValueError):
            LocalPredicate("A", 0.0)
        with pytest.raises(ValueError):
            LocalPredicate("A", 1.5)
        with pytest.raises(ValueError):
            JoinPredicate("A", "X", "B", "Y", selectivity=0.0)

    def test_self_loop_join_rejected(self):
        with pytest.raises(ValueError):
            JoinPredicate("A", "X", "A", "Y")


class TestAccessors:
    def test_aliases_and_tables(self):
        query = _chain_query()
        assert query.aliases == ("A", "B", "C")
        assert query.table_of("B") == "T2"
        with pytest.raises(KeyError):
            query.table_of("Z")

    def test_table_names_deduplicate_self_joins(self):
        query = QuerySpec(
            "q",
            (TableRef("L1", "LINEITEM"), TableRef("L2", "LINEITEM")),
            joins=(JoinPredicate("L1", "K", "L2", "K"),),
        )
        assert query.table_names() == ("LINEITEM",)

    def test_predicates_for(self):
        query = _chain_query()
        assert len(query.predicates_for("A")) == 1
        assert query.predicates_for("B") == ()

    def test_joins_between_and_within(self):
        query = _chain_query()
        between = query.joins_between({"A"}, {"B"})
        assert len(between) == 1
        assert between[0].column_for("A") == "X"
        assert query.joins_between({"A"}, {"C"}) == ()
        assert len(query.joins_within({"A", "B", "C"})) == 2
        assert len(query.joins_within({"A", "C"})) == 0

    def test_join_edge_helpers(self):
        edge = JoinPredicate("A", "X", "B", "Y")
        assert edge.aliases() == frozenset({"A", "B"})
        assert edge.other("A") == "B"
        assert edge.column_for("B") == "Y"
        with pytest.raises(KeyError):
            edge.other("Z")
        with pytest.raises(KeyError):
            edge.column_for("Z")


class TestJoinGraph:
    def test_chain_is_connected(self):
        assert _chain_query().is_connected()

    def test_cross_product_is_disconnected(self):
        query = QuerySpec(
            "q", (TableRef("A", "T1"), TableRef("B", "T2"))
        )
        assert not query.is_connected()

    def test_two_joined_components_are_disconnected(self):
        query = QuerySpec(
            "q",
            tuple(TableRef(a, f"T{a}") for a in "ABCD"),
            joins=(
                JoinPredicate("A", "x", "B", "x"),
                JoinPredicate("D", "y", "C", "y"),
            ),
        )
        assert not query.is_connected()
        bridged = QuerySpec(
            "q", query.tables,
            joins=query.joins + (JoinPredicate("C", "z", "B", "z"),),
        )
        assert bridged.is_connected()

    def test_clause_flags(self):
        query = _chain_query()
        assert not query.has_aggregation
        assert not query.has_final_sort
        grouped = QuerySpec(
            "q",
            (TableRef("A", "T1"),),
            group_by=(("A", "X"),),
            order_by=(("A", "X"),),
        )
        assert grouped.has_aggregation
        assert grouped.has_final_sort
