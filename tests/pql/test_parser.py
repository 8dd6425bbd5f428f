"""Tests for the PQL parser."""

import pytest

from repro.errors import PQLSyntaxError, QueryError
from repro.pql.ast_nodes import (
    AggFunc,
    Aggregation,
    And,
    Between,
    ColumnRef,
    CompareOp,
    Comparison,
    In,
    Not,
    Or,
)
from repro.pql.parser import parse


class TestSelectList:
    def test_projection(self):
        query = parse("SELECT a, b FROM t")
        assert query.select == (ColumnRef("a"), ColumnRef("b"))
        assert query.is_selection

    def test_star(self):
        query = parse("SELECT * FROM t")
        assert query.select_star

    def test_aggregations(self):
        query = parse("SELECT count(*), sum(x), distinctcount(y) FROM t")
        assert query.aggregations == (
            Aggregation(AggFunc.COUNT, "*"),
            Aggregation(AggFunc.SUM, "x"),
            Aggregation(AggFunc.DISTINCTCOUNT, "y"),
        )
        assert query.is_aggregation

    def test_aggregation_case_insensitive(self):
        query = parse("SELECT SuM(x) FROM t")
        assert query.aggregations[0].func is AggFunc.SUM

    def test_unknown_function_rejected(self):
        with pytest.raises(PQLSyntaxError, match="unknown aggregation"):
            parse("SELECT median(x) FROM t")

    def test_star_argument_only_for_count(self):
        with pytest.raises(PQLSyntaxError):
            parse("SELECT sum(*) FROM t")

    def test_percentiles(self):
        query = parse("SELECT percentile95(x) FROM t")
        assert query.aggregations[0].func is AggFunc.PERCENTILE95


class TestWhere:
    def test_comparisons(self):
        query = parse("SELECT a FROM t WHERE x = 1 AND y >= 2.5 "
                      "AND z != 'q'")
        assert isinstance(query.where, And)
        ops = [child.op for child in query.where.children]
        assert ops == [CompareOp.EQ, CompareOp.GTE, CompareOp.NEQ]

    def test_neq_spellings(self):
        a = parse("SELECT a FROM t WHERE x != 1").where
        b = parse("SELECT a FROM t WHERE x <> 1").where
        assert a == b

    def test_in(self):
        query = parse("SELECT a FROM t WHERE c IN ('x', 'y')")
        assert query.where == In("c", ("x", "y"))

    def test_not_in(self):
        query = parse("SELECT a FROM t WHERE c NOT IN (1, 2)")
        assert query.where == In("c", (1, 2), negated=True)

    def test_between(self):
        query = parse("SELECT a FROM t WHERE d BETWEEN 1 AND 5")
        assert query.where == Between("d", 1, 5)

    def test_boolean_literals(self):
        query = parse("SELECT a FROM t WHERE flag = true")
        assert query.where == Comparison("flag", CompareOp.EQ, True)

    def test_precedence_and_over_or(self):
        query = parse("SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3")
        assert isinstance(query.where, Or)
        assert isinstance(query.where.children[1], And)

    def test_parentheses(self):
        query = parse("SELECT a FROM t WHERE (x = 1 OR y = 2) AND z = 3")
        assert isinstance(query.where, And)
        assert isinstance(query.where.children[0], Or)

    def test_not(self):
        query = parse("SELECT a FROM t WHERE NOT x = 1")
        assert isinstance(query.where, Not)

    def test_missing_predicate(self):
        with pytest.raises(PQLSyntaxError):
            parse("SELECT a FROM t WHERE x")


class TestClauses:
    def test_group_by(self):
        query = parse("SELECT sum(x) FROM t GROUP BY a, b")
        assert query.group_by == ("a", "b")

    def test_group_by_requires_aggregation(self):
        with pytest.raises(PQLSyntaxError):
            parse("SELECT a FROM t GROUP BY a")

    def test_projection_must_be_grouped(self):
        with pytest.raises(PQLSyntaxError):
            parse("SELECT a, sum(x) FROM t GROUP BY b")

    def test_grouped_projection_allowed(self):
        query = parse("SELECT a, sum(x) FROM t GROUP BY a")
        assert query.projections == (ColumnRef("a"),)

    def test_mixing_without_group_by_rejected(self):
        with pytest.raises(PQLSyntaxError):
            parse("SELECT a, sum(x) FROM t")

    def test_top(self):
        assert parse("SELECT sum(x) FROM t GROUP BY a TOP 5").limit == 5

    def test_limit(self):
        assert parse("SELECT a FROM t LIMIT 7").limit == 7

    def test_limit_with_offset(self):
        query = parse("SELECT a FROM t LIMIT 20, 10")
        assert query.offset == 20
        assert query.limit == 10

    def test_default_limit(self):
        assert parse("SELECT a FROM t").limit == 10

    def test_order_by(self):
        query = parse("SELECT a, b FROM t ORDER BY a DESC, b")
        assert query.order_by[0].descending
        assert not query.order_by[1].descending

    def test_order_by_aggregation(self):
        query = parse(
            "SELECT sum(x) FROM t GROUP BY a ORDER BY sum(x) DESC TOP 3"
        )
        assert query.order_by[0].expression == Aggregation(AggFunc.SUM, "x")

    def test_order_by_aggregation_not_selected_rejected(self):
        with pytest.raises(PQLSyntaxError):
            parse("SELECT sum(x) FROM t GROUP BY a ORDER BY sum(y)")

    def test_order_by_ungrouped_column_rejected(self):
        with pytest.raises(PQLSyntaxError):
            parse("SELECT sum(x) FROM t GROUP BY a ORDER BY b")

    def test_option_clause(self):
        query = parse("SELECT a FROM t OPTION (timeoutMs = 100)")
        assert query.options == {"timeoutMs": 100}

    def test_boolean_options(self):
        query = parse(
            "SELECT a FROM t OPTION (skipCache = true, skipPrune = FALSE)"
        )
        assert query.options == {"skipCache": True, "skipPrune": False}

    @pytest.mark.parametrize("option", [
        "skipCahce = true",
        "vectorized = false",
    ], ids=["skipCahce", "vectorized"])
    def test_unknown_option_rejected(self, option):
        name = option.split()[0]
        with pytest.raises(QueryError, match=name):
            parse(f"SELECT a FROM t OPTION ({option})")

    def test_unknown_option_error_lists_known_names(self):
        with pytest.raises(QueryError, match="skipCache"):
            parse("SELECT a FROM t OPTION (bogus = 1)")

    def test_option_value_type_checked(self):
        with pytest.raises(QueryError, match="boolean"):
            parse("SELECT a FROM t OPTION (skipCache = 1)")
        with pytest.raises(QueryError, match="number"):
            parse("SELECT a FROM t OPTION (timeoutMs = true)")
        with pytest.raises(QueryError, match="number"):
            parse("SELECT a FROM t OPTION (timeoutMs = 'fast')")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(PQLSyntaxError, match="trailing"):
            parse("SELECT a FROM t LIMIT 5 bogus")

    def test_referenced_columns(self):
        query = parse(
            "SELECT sum(x) FROM t WHERE a = 1 AND b IN (2) GROUP BY c"
        )
        assert query.referenced_columns() == {"x", "a", "b", "c"}

    def test_str_roundtrips_through_parser(self):
        text = ("SELECT sum(x), count(*) FROM t WHERE a = 1 AND "
                "b BETWEEN 2 AND 3 GROUP BY c ORDER BY sum(x) DESC "
                "LIMIT 5")
        query = parse(text)
        assert parse(str(query)) == query


class TestTimeBucket:
    def test_group_by_timebucket(self):
        from repro.pql.ast_nodes import TimeBucket

        query = parse("SELECT count(*) FROM t GROUP BY timebucket(day, 7)")
        assert query.group_by == (TimeBucket("day", 7),)

    def test_mixed_with_plain_columns(self):
        from repro.pql.ast_nodes import TimeBucket

        query = parse(
            "SELECT count(*) FROM t GROUP BY country, timebucket(day, 5)"
        )
        assert query.group_by == ("country", TimeBucket("day", 5))

    def test_case_insensitive_keyword(self):
        from repro.pql.ast_nodes import TimeBucket

        query = parse("SELECT count(*) FROM t GROUP BY TIMEBUCKET(day, 5)")
        assert query.group_by == (TimeBucket("day", 5),)

    def test_size_must_be_positive_integer(self):
        for bad in ("0", "-2", "2.5"):
            with pytest.raises(PQLSyntaxError):
                parse(f"SELECT count(*) FROM t "
                      f"GROUP BY timebucket(day, {bad})")

    def test_str_round_trips(self):
        text = ("SELECT sum(x) FROM t WHERE day >= 17000 "
                "GROUP BY timebucket(day, 5) TOP 10")
        query = parse(text)
        assert parse(str(query)) == query

    def test_plain_timebucket_identifier_still_a_column(self):
        # Without parentheses, "timebucket" is just a column name.
        query = parse("SELECT count(*) FROM t GROUP BY timebucket")
        assert query.group_by == ("timebucket",)


class TestApproximateOption:
    def test_option_parses_as_boolean(self):
        query = parse(
            "SELECT distinctcount(a) FROM t "
            "OPTION (useApproximateFunction = true)"
        )
        assert query.options == {"useApproximateFunction": True}

    def test_option_combines_with_others(self):
        query = parse(
            "SELECT distinctcount(a) FROM t "
            "OPTION (useApproximateFunction = false, skipCache = true)"
        )
        assert query.options == {"useApproximateFunction": False,
                                 "skipCache": True}

    def test_non_boolean_value_rejected(self):
        with pytest.raises(QueryError):
            parse("SELECT a FROM t OPTION (useApproximateFunction = 1)")
