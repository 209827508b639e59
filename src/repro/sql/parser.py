"""Recursive-descent parser for GPSJ view definitions.

Grammar (conjunctive WHERE, per the GPSJ class of Section 2.1)::

    statement  := [CREATE VIEW name AS] select
    select     := SELECT item ("," item)* FROM ident ("," ident)*
                  [WHERE conjunct (AND conjunct)*]
                  [GROUP BY colref ("," colref)*]
                  [HAVING having_expr]
    item       := aggregate [AS alias] | colref [AS alias]
    aggregate  := FUNC "(" [DISTINCT] (colref | "*") ")"
    conjunct   := expr cmp expr | colref IN "(" literal ("," literal)* ")"
    expr       := term (("+"|"-") term)* ; term := factor (("*"|"/") factor)*
    factor     := colref | literal | "(" expr ")"

WHERE conjuncts of the form ``Ri.b = Rj.a`` where ``a`` is the key of
``Rj`` and the two sides come from different tables are classified as
join conditions; everything else must be local to a single table.  The
catalog (a :class:`Database`) resolves unqualified column names.
"""

from __future__ import annotations

from repro.catalog.database import Database
from repro.core.view import JoinCondition, ViewDefinition
from repro.engine.aggregates import AggregateFunction
from repro.engine.expressions import (
    And,
    Arithmetic,
    Column,
    Comparison,
    Expression,
    InList,
    Literal,
    Not,
    Or,
)
from repro.engine.operators import AggregateItem, GroupByItem, ProjectionItem
from repro.sql.lexer import Token, tokenize

_AGGREGATE_KEYWORDS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


class SqlParseError(Exception):
    """Raised on syntax errors or statements outside the GPSJ dialect."""


def parse_view(
    sql: str, database: Database, name: str | None = None
) -> ViewDefinition:
    """Parse a GPSJ view statement against ``database``'s catalog.

    ``name`` overrides/provides the view name when the statement is a
    bare SELECT without a CREATE VIEW prefix.
    """
    parser = _Parser(tokenize(sql), database)
    return parser.parse_statement(default_name=name)


class _Parser:
    def __init__(self, tokens: list[Token], database: Database):
        self._tokens = tokens
        self._pos = 0
        self._database = database
        self._tables: list[str] = []

    # ------------------------------------------------------------------
    # Token plumbing.
    # ------------------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._pos]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def _expect_keyword(self, word: str) -> Token:
        token = self._advance()
        if not token.is_keyword(word):
            raise SqlParseError(f"expected {word}, found {token}")
        return token

    def _expect_punct(self, symbol: str) -> Token:
        token = self._advance()
        if not (token.kind in ("PUNCT", "OPERATOR") and token.value == symbol):
            raise SqlParseError(f"expected {symbol!r}, found {token}")
        return token

    def _match_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._advance()
            return True
        return False

    def _match_punct(self, symbol: str) -> bool:
        token = self._peek()
        if token.kind in ("PUNCT", "OPERATOR") and token.value == symbol:
            self._advance()
            return True
        return False

    def _expect_ident(self) -> str:
        token = self._advance()
        if token.kind != "IDENT":
            raise SqlParseError(f"expected identifier, found {token}")
        return token.value

    # ------------------------------------------------------------------
    # Statement structure.
    # ------------------------------------------------------------------

    def parse_statement(self, default_name: str | None) -> ViewDefinition:
        name = default_name
        if self._match_keyword("CREATE"):
            self._expect_keyword("VIEW")
            name = self._expect_ident()
            self._expect_keyword("AS")
        if name is None:
            raise SqlParseError(
                "bare SELECT statements need an explicit view name"
            )
        self._expect_keyword("SELECT")
        items = [self._parse_select_item()]
        while self._match_punct(","):
            items.append(self._parse_select_item())
        self._expect_keyword("FROM")
        self._tables = [self._expect_ident()]
        while self._match_punct(","):
            self._tables.append(self._expect_ident())
        conjuncts: list[Expression] = []
        if self._match_keyword("WHERE"):
            conjuncts.append(self._parse_conjunct())
            while self._match_keyword("AND"):
                conjuncts.append(self._parse_conjunct())
        group_by: list[Column] = []
        if self._match_keyword("GROUP"):
            self._expect_keyword("BY")
            group_by.append(self._parse_column())
            while self._match_punct(","):
                group_by.append(self._parse_column())
        having: Expression | None = None
        if self._match_keyword("HAVING"):
            having = self._parse_having_or()
        token = self._peek()
        if token.kind != "EOF":
            raise SqlParseError(f"unexpected trailing input at {token}")
        return self._assemble(name, items, conjuncts, group_by, having)

    # ------------------------------------------------------------------
    # SELECT list.
    # ------------------------------------------------------------------

    def _parse_select_item(self) -> ProjectionItem:
        token = self._peek()
        if token.kind == "KEYWORD" and token.value in _AGGREGATE_KEYWORDS:
            return self._parse_aggregate()
        column = self._parse_column()
        alias = self._parse_alias()
        return GroupByItem(column, alias)

    def _parse_aggregate(self) -> AggregateItem:
        func = AggregateFunction(self._advance().value)
        self._expect_punct("(")
        distinct = self._match_keyword("DISTINCT")
        if self._match_punct("*"):
            if func is not AggregateFunction.COUNT or distinct:
                raise SqlParseError(f"{func.value}(*) is not a valid aggregate")
            column = None
        else:
            column = self._parse_column()
        self._expect_punct(")")
        alias = self._parse_alias()
        return AggregateItem(func, column, distinct, alias)

    def _parse_alias(self) -> str | None:
        if self._match_keyword("AS"):
            return self._expect_ident()
        return None

    # ------------------------------------------------------------------
    # Columns and expressions.
    # ------------------------------------------------------------------

    def _parse_column(self) -> Column:
        first = self._expect_ident()
        if self._match_punct("."):
            second = self._expect_ident()
            return Column(second, first)
        return Column(first)

    def _parse_conjunct(self) -> Expression:
        left = self._parse_expr()
        token = self._peek()
        if token.is_keyword("IN"):
            self._advance()
            self._expect_punct("(")
            values = [self._parse_literal_value()]
            while self._match_punct(","):
                values.append(self._parse_literal_value())
            self._expect_punct(")")
            return InList(left, values)
        if token.kind == "OPERATOR" and token.value in (
            "=",
            "<>",
            "!=",
            "<",
            "<=",
            ">",
            ">=",
        ):
            self._advance()
            right = self._parse_expr()
            return Comparison(token.value, left, right)
        raise SqlParseError(f"expected comparison operator, found {token}")

    def _parse_literal_value(self) -> object:
        token = self._advance()
        if token.kind in ("NUMBER", "STRING"):
            return token.value
        if token.is_keyword("TRUE"):
            return True
        if token.is_keyword("FALSE"):
            return False
        raise SqlParseError(f"expected literal, found {token}")

    def _parse_expr(self) -> Expression:
        left = self._parse_term()
        while True:
            token = self._peek()
            if token.kind == "OPERATOR" and token.value in ("+", "-"):
                self._advance()
                left = Arithmetic(token.value, left, self._parse_term())
            else:
                return left

    def _parse_term(self) -> Expression:
        left = self._parse_factor()
        while True:
            token = self._peek()
            if token.kind == "OPERATOR" and token.value in ("*", "/"):
                self._advance()
                left = Arithmetic(token.value, left, self._parse_factor())
            else:
                return left

    def _parse_factor(self) -> Expression:
        token = self._peek()
        if token.kind in ("NUMBER", "STRING"):
            self._advance()
            return Literal(token.value)
        if token.is_keyword("TRUE") or token.is_keyword("FALSE"):
            self._advance()
            return Literal(token.value == "TRUE")
        if token.kind == "PUNCT" and token.value == "(":
            self._advance()
            inner = self._parse_expr()
            self._expect_punct(")")
            return inner
        if token.kind == "OPERATOR" and token.value == "-":
            self._advance()
            return Arithmetic("-", Literal(0), self._parse_factor())
        if token.kind == "IDENT":
            return self._parse_column()
        raise SqlParseError(f"expected expression, found {token}")

    def _parse_having_or(self) -> Expression:
        left = self._parse_having_and()
        parts = [left]
        while self._match_keyword("OR"):
            parts.append(self._parse_having_and())
        if len(parts) == 1:
            return left
        return Or(*parts)

    def _parse_having_and(self) -> Expression:
        left = self._parse_having_not()
        parts = [left]
        while self._match_keyword("AND"):
            parts.append(self._parse_having_not())
        if len(parts) == 1:
            return left
        return And(*parts)

    def _parse_having_not(self) -> Expression:
        if self._match_keyword("NOT"):
            return Not(self._parse_having_not())
        return self._parse_conjunct()

    # ------------------------------------------------------------------
    # Semantic assembly against the catalog.
    # ------------------------------------------------------------------

    def _assemble(
        self,
        name: str,
        items: list[ProjectionItem],
        conjuncts: list[Expression],
        group_by: list[Column],
        having: Expression | None,
    ) -> ViewDefinition:
        for table in self._tables:
            if table not in self._database:
                raise SqlParseError(f"unknown table {table!r} in FROM")
        items = [self._qualify_item(item) for item in items]
        group_columns = {self._qualify_column(c) for c in group_by}
        projected_group_columns = {
            item.column for item in items if isinstance(item, GroupByItem)
        }
        if group_columns != projected_group_columns:
            raise SqlParseError(
                "GROUP BY must list exactly the non-aggregate SELECT columns "
                f"(grouped {sorted(c.qualified_name for c in group_columns)}, "
                f"projected "
                f"{sorted(c.qualified_name for c in projected_group_columns)})"
            )
        selection: list[Expression] = []
        joins: list[JoinCondition] = []
        for conjunct in conjuncts:
            qualified = self._qualify_expression(conjunct)
            join = self._as_join(qualified)
            if join is not None:
                joins.append(join)
            else:
                selection.append(qualified)
        return ViewDefinition(
            name=name,
            tables=tuple(self._tables),
            projection=tuple(items),
            selection=tuple(selection),
            joins=tuple(joins),
            having=having,
        )

    def _qualify_item(self, item: ProjectionItem) -> ProjectionItem:
        if isinstance(item, GroupByItem):
            return GroupByItem(self._qualify_column(item.column), item.alias)
        if item.column is None:
            return item
        return AggregateItem(
            item.func, self._qualify_column(item.column), item.distinct, item.alias
        )

    def _qualify_column(self, column: Column) -> Column:
        if column.qualifier is not None:
            if column.qualifier not in self._tables:
                raise SqlParseError(
                    f"column {column.qualified_name!r} references a table "
                    "outside FROM"
                )
            schema = self._database.table(column.qualifier).schema
            if not schema.has(column.name):
                raise SqlParseError(
                    f"table {column.qualifier!r} has no column {column.name!r}"
                )
            return column
        owners = [
            table
            for table in self._tables
            if self._database.table(table).schema.has(column.name)
        ]
        if not owners:
            raise SqlParseError(f"unknown column {column.name!r}")
        if len(owners) > 1:
            raise SqlParseError(
                f"ambiguous column {column.name!r} (in {owners!r})"
            )
        return Column(column.name, owners[0])

    def _qualify_expression(self, expression: Expression) -> Expression:
        mapping = {
            column: self._qualify_column(column)
            for column in expression.columns()
            if column.qualifier is None
        }
        if not mapping:
            return expression
        return expression.substitute(mapping)

    def _as_join(self, expression: Expression) -> JoinCondition | None:
        """Recognize ``Ri.b = Rj.a`` with ``a`` the key of ``Rj``."""
        if not isinstance(expression, Comparison) or expression.op != "=":
            return None
        left, right = expression.left, expression.right
        if not (isinstance(left, Column) and isinstance(right, Column)):
            return None
        if left.qualifier == right.qualifier:
            return None
        for fk, pk in ((left, right), (right, left)):
            key = self._database.table(pk.qualifier).key
            if pk.name == key:
                return JoinCondition(fk.qualifier, fk.name, pk.qualifier, pk.name)
        raise SqlParseError(
            f"cross-table condition {expression.to_sql()!r} does not join on "
            "a key; GPSJ views join on keys"
        )
