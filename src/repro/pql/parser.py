"""Recursive-descent parser for PQL.

Grammar (informal)::

    query      := SELECT select_list FROM identifier
                  [WHERE or_expr] [GROUP BY columns] [ORDER BY orderings]
                  [TOP number | LIMIT number [, number]]
                  [OPTION (key = value, ...)]
    select_list := '*' | select_item (',' select_item)*
    select_item := identifier | func '(' ('*' | identifier) ')'
    or_expr    := and_expr (OR and_expr)*
    and_expr   := unary (AND unary)*
    unary      := NOT unary | '(' or_expr ')' | leaf
    leaf       := column op literal
               | column [NOT] IN '(' literal (',' literal)* ')'
               | column BETWEEN literal AND literal
"""

from __future__ import annotations

from typing import Any

from repro.errors import PQLSyntaxError, QueryError
from repro.pql.ast_nodes import (
    AggFunc,
    Aggregation,
    And,
    Between,
    ColumnRef,
    CompareOp,
    Comparison,
    HavingCondition,
    In,
    Like,
    Not,
    Or,
    OrderBy,
    Predicate,
    GroupByExpr,
    Query,
    SelectItem,
    TimeBucket,
)
from repro.pql.lexer import Token, TokenType, tokenize

_AGG_NAMES = {f.value: f for f in AggFunc}
_DEFAULT_LIMIT = 10

#: Recognized OPTION(...) keys and the literal types each accepts.
#: Unknown options are rejected loudly — a typo like skipCahce silently
#: ignored would run the query with the wrong semantics.
_KNOWN_OPTIONS: dict[str, tuple[type, ...]] = {
    "timeoutMs": (int, float),
    "skipCache": (bool,),
    "skipPrune": (bool,),
    "trace": (bool,),
    #: Per-query override for the broker's smart-approximation rewrite
    #: (DISTINCTCOUNT -> HLL, PERCENTILE -> quantile sketch); overrides
    #: the broker's use_approximate_function config either way.
    "useApproximateFunction": (bool,),
}


def parse(text: str) -> Query:
    """Parse a PQL string into a :class:`Query`."""
    return _Parser(tokenize(text)).parse_query()


class _Parser:
    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    # -- token plumbing -----------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._current
        self._pos += 1
        return token

    def _expect_keyword(self, keyword: str) -> Token:
        token = self._current
        if not token.matches_keyword(keyword):
            raise PQLSyntaxError(
                f"expected {keyword}, got {token.value!r}", token.position
            )
        return self._advance()

    def _expect(self, token_type: TokenType) -> Token:
        token = self._current
        if token.type is not token_type:
            raise PQLSyntaxError(
                f"expected {token_type.value}, got {token.value!r}",
                token.position,
            )
        return self._advance()

    def _accept_keyword(self, keyword: str) -> bool:
        if self._current.matches_keyword(keyword):
            self._advance()
            return True
        return False

    # -- query --------------------------------------------------------------

    def parse_query(self) -> Query:
        self._expect_keyword("SELECT")
        select, star = self._parse_select_list()
        self._expect_keyword("FROM")
        table = self._expect(TokenType.IDENTIFIER).value

        where = None
        if self._accept_keyword("WHERE"):
            where = self._parse_or()

        group_by: tuple[GroupByExpr, ...] = ()
        if self._accept_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by = self._parse_group_by_list()

        having: list[HavingCondition] = []
        if self._accept_keyword("HAVING"):
            having = self._parse_having()

        order_by: list[OrderBy] = []
        if self._accept_keyword("ORDER"):
            self._expect_keyword("BY")
            order_by = self._parse_orderings()

        limit, offset = _DEFAULT_LIMIT, 0
        if self._accept_keyword("TOP"):
            limit = int(self._expect(TokenType.NUMBER).value)
        elif self._accept_keyword("LIMIT"):
            first = int(self._expect(TokenType.NUMBER).value)
            if self._current.type is TokenType.COMMA:
                self._advance()
                offset = first
                limit = int(self._expect(TokenType.NUMBER).value)
            else:
                limit = first

        options: dict[str, Any] = {}
        if self._accept_keyword("OPTION"):
            options = self._parse_options()

        token = self._current
        if token.type is not TokenType.EOF:
            raise PQLSyntaxError(
                f"unexpected trailing input {token.value!r}", token.position
            )

        query = Query(
            table=table, select=tuple(select), where=where,
            group_by=group_by, having=tuple(having),
            order_by=tuple(order_by),
            limit=limit, offset=offset, select_star=star, options=options,
        )
        _validate(query)
        return query

    def _parse_select_list(self) -> tuple[list[SelectItem], bool]:
        if self._current.type is TokenType.STAR:
            self._advance()
            return [], True
        items = [self._parse_select_item()]
        while self._current.type is TokenType.COMMA:
            self._advance()
            items.append(self._parse_select_item())
        return items, False

    def _parse_select_item(self) -> SelectItem:
        token = self._expect(TokenType.IDENTIFIER)
        name = token.value
        upper = name.upper()
        if self._current.type is TokenType.LPAREN:
            if upper not in _AGG_NAMES:
                raise PQLSyntaxError(
                    f"unknown aggregation function {name!r}", token.position
                )
            self._advance()
            if self._current.type is TokenType.STAR:
                self._advance()
                column = "*"
            else:
                column = self._expect(TokenType.IDENTIFIER).value
            self._expect(TokenType.RPAREN)
            func = _AGG_NAMES[upper]
            if column == "*" and func is not AggFunc.COUNT:
                raise PQLSyntaxError(
                    f"{func.value} requires a column argument", token.position
                )
            return Aggregation(func, column)
        return ColumnRef(name)

    def _parse_group_by_list(self) -> tuple[GroupByExpr, ...]:
        entries = [self._parse_group_by_entry()]
        while self._current.type is TokenType.COMMA:
            self._advance()
            entries.append(self._parse_group_by_entry())
        return tuple(entries)

    def _parse_group_by_entry(self) -> GroupByExpr:
        token = self._expect(TokenType.IDENTIFIER)
        if (token.value.upper() == "TIMEBUCKET"
                and self._current.type is TokenType.LPAREN):
            self._advance()
            column = self._expect(TokenType.IDENTIFIER).value
            self._expect(TokenType.COMMA)
            size_token = self._expect(TokenType.NUMBER)
            self._expect(TokenType.RPAREN)
            size = size_token.value
            if not isinstance(size, int) or size < 1:
                raise PQLSyntaxError(
                    "timebucket size must be a positive integer",
                    size_token.position,
                )
            return TimeBucket(column, size)
        return token.value

    def _parse_having(self) -> list[HavingCondition]:
        conditions = [self._parse_having_condition()]
        while self._accept_keyword("AND"):
            conditions.append(self._parse_having_condition())
        return conditions

    def _parse_having_condition(self) -> HavingCondition:
        item = self._parse_select_item()
        if not isinstance(item, Aggregation):
            raise PQLSyntaxError(
                "HAVING conditions must compare aggregation functions"
            )
        op_token = self._expect(TokenType.OPERATOR)
        value = self._parse_literal()
        return HavingCondition(item, CompareOp(op_token.value), value)

    def _parse_orderings(self) -> list[OrderBy]:
        orderings = [self._parse_one_ordering()]
        while self._current.type is TokenType.COMMA:
            self._advance()
            orderings.append(self._parse_one_ordering())
        return orderings

    def _parse_one_ordering(self) -> OrderBy:
        expression = self._parse_select_item()
        descending = False
        if self._accept_keyword("DESC"):
            descending = True
        else:
            self._accept_keyword("ASC")
        return OrderBy(expression, descending)

    def _parse_options(self) -> dict[str, Any]:
        self._expect(TokenType.LPAREN)
        options: dict[str, Any] = {}
        while True:
            key_token = self._expect(TokenType.IDENTIFIER)
            key = key_token.value
            op = self._expect(TokenType.OPERATOR)
            if op.value != "=":
                raise PQLSyntaxError("expected '=' in OPTION", op.position)
            options[key] = self._validate_option(key, self._parse_literal())
            if self._current.type is TokenType.COMMA:
                self._advance()
                continue
            break
        self._expect(TokenType.RPAREN)
        return options

    @staticmethod
    def _validate_option(key: str, value: Any) -> Any:
        try:
            accepted = _KNOWN_OPTIONS[key]
        except KeyError:
            known = ", ".join(sorted(_KNOWN_OPTIONS))
            raise QueryError(
                f"unknown query option {key!r}; known options: {known}"
            ) from None
        # bool is a subclass of int, so an explicit check keeps
        # OPTION(timeoutMs=true) from sneaking through as a number.
        if isinstance(value, bool) is not (accepted == (bool,)) or \
                not isinstance(value, accepted):
            expected = "boolean" if accepted == (bool,) else "number"
            raise QueryError(
                f"query option {key!r} expects a {expected} value, "
                f"got {value!r}"
            )
        return value

    # -- predicates ------------------------------------------------------------

    def _parse_or(self) -> Predicate:
        left = self._parse_and()
        children = [left]
        while self._accept_keyword("OR"):
            children.append(self._parse_and())
        if len(children) == 1:
            return left
        return Or(tuple(children))

    def _parse_and(self) -> Predicate:
        left = self._parse_unary()
        children = [left]
        while self._accept_keyword("AND"):
            children.append(self._parse_unary())
        if len(children) == 1:
            return left
        return And(tuple(children))

    def _parse_unary(self) -> Predicate:
        if self._accept_keyword("NOT"):
            return Not(self._parse_unary())
        if self._current.type is TokenType.LPAREN:
            self._advance()
            inner = self._parse_or()
            self._expect(TokenType.RPAREN)
            return inner
        return self._parse_leaf()

    def _parse_leaf(self) -> Predicate:
        column = self._expect(TokenType.IDENTIFIER).value
        token = self._current
        if token.type is TokenType.OPERATOR:
            self._advance()
            value = self._parse_literal()
            return Comparison(column, CompareOp(token.value), value)
        if token.matches_keyword("NOT"):
            self._advance()
            if self._accept_keyword("LIKE"):
                pattern = self._expect(TokenType.STRING).value
                return Like(column, pattern, negated=True)
            self._expect_keyword("IN")
            return self._parse_in(column, negated=True)
        if token.matches_keyword("IN"):
            self._advance()
            return self._parse_in(column, negated=False)
        if token.matches_keyword("LIKE"):
            self._advance()
            pattern = self._expect(TokenType.STRING).value
            return Like(column, pattern)
        if token.matches_keyword("BETWEEN"):
            self._advance()
            low = self._parse_literal()
            self._expect_keyword("AND")
            high = self._parse_literal()
            return Between(column, low, high)
        raise PQLSyntaxError(
            f"expected a predicate after column {column!r}", token.position
        )

    def _parse_in(self, column: str, negated: bool) -> Predicate:
        self._expect(TokenType.LPAREN)
        values = [self._parse_literal()]
        while self._current.type is TokenType.COMMA:
            self._advance()
            values.append(self._parse_literal())
        self._expect(TokenType.RPAREN)
        return In(column, tuple(values), negated)

    def _parse_literal(self) -> Any:
        token = self._current
        if token.type is TokenType.NUMBER:
            self._advance()
            return token.value
        if token.type is TokenType.STRING:
            self._advance()
            return token.value
        if token.matches_keyword("TRUE"):
            self._advance()
            return True
        if token.matches_keyword("FALSE"):
            self._advance()
            return False
        raise PQLSyntaxError(
            f"expected a literal, got {token.value!r}", token.position
        )


def _validate(query: Query) -> None:
    """Structural checks that don't require a schema."""
    if query.select_star and query.group_by:
        raise PQLSyntaxError("SELECT * cannot be combined with GROUP BY")
    if not query.select_star and not query.select:
        raise PQLSyntaxError("empty select list")
    if query.group_by:
        if not query.is_aggregation:
            raise PQLSyntaxError("GROUP BY requires aggregation functions")
        for item in query.projections:
            if item.name not in query.group_by:
                raise PQLSyntaxError(
                    f"projected column {item.name!r} is not in GROUP BY"
                )
    if query.having:
        if not query.group_by:
            raise PQLSyntaxError("HAVING requires GROUP BY")
        for condition in query.having:
            if condition.aggregation not in query.select:
                raise PQLSyntaxError(
                    f"HAVING aggregation {condition.aggregation} must "
                    "appear in the select list"
                )
    if query.is_aggregation and query.projections and not query.group_by:
        raise PQLSyntaxError(
            "cannot mix plain columns and aggregations without GROUP BY"
        )
    for ordering in query.order_by:
        expr = ordering.expression
        if isinstance(expr, Aggregation):
            if not query.group_by:
                raise PQLSyntaxError(
                    "ORDER BY aggregation requires GROUP BY"
                )
            if expr not in query.select:
                raise PQLSyntaxError(
                    f"ORDER BY {expr} must appear in the select list"
                )
        elif query.group_by and expr.name not in query.group_by:
            raise PQLSyntaxError(
                f"ORDER BY column {expr.name!r} is not in GROUP BY"
            )
