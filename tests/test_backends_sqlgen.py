"""The SQL generator's contract with the parser, the dialect, and the
algebra.

Every statement :mod:`repro.backends.sqlgen` produces — view
recomputation queries and the per-(table, sign) maintenance stage
queries of a live maintainer — must unparse with ``to_sql()`` and
re-parse through :func:`repro.sql.parser.parse_select` to an *equal*
AST.  That keeps the generated SQL inside the repo's own dialect:
anything we emit, we can read back.

The paper's reductions are relational algebra, not interpreter
artifacts: view plans compiled to SQL and run on stdlib :mod:`sqlite3`
(:func:`run_on_sqlite`) must be bag-equal to eager evaluation.
"""

import sqlite3

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from repro.backends.sqlgen import (
    NameResolver,
    SqlGenError,
    compile_logical,
    compile_physical,
    render_select,
)
from repro.core.maintenance import SelfMaintainer
from repro.engine.relation import Relation
from repro.engine.types import AttributeType
from repro.plan import logical as L
from repro.plan.physical import AccumulateNode
from repro.plan.planner import view_plan
from repro.sql import parse_select, parse_view
from repro.workloads.random_gen import random_scenario
from repro.workloads.streams import TransactionGenerator

from tests.helpers import assert_same_bag, paper_database

_SQL_TYPES = {
    AttributeType.INT: "INTEGER",
    AttributeType.FLOAT: "REAL",
    AttributeType.STRING: "TEXT",
    AttributeType.BOOL: "BOOLEAN",
}


class _StaticResolver(NameResolver):
    """Base tables only, physical name ``base_<table>``."""

    def __init__(self, database):
        self._database = database

    def physical(self, source):
        return f"base_{source}"

    def schema(self, source):
        return self._database.relation(source).schema


class _StageResolver(NameResolver):
    """A maintainer's auxiliary views as ``aux_<table>`` and its deltas
    as ``delta_<ins|del>_<table>``, with the schemas the stages bind."""

    def __init__(self, maintainer, database):
        self._maintainer = maintainer
        self._database = database

    def physical(self, source):
        return f"aux_{source}"

    def schema(self, source):
        return self._maintainer.aux_relation(source).schema

    def delta_physical(self, table, sign):
        return f"delta_{'ins' if sign > 0 else 'del'}_{table}"

    def delta_schema(self, table, sign):
        return self._database.table(table).schema


def run_on_sqlite(plan, database) -> Relation:
    """Evaluate a view plan as generated SQL on an in-memory stdlib
    :mod:`sqlite3` database holding copies of the base tables.  SQLite
    stores BOOL as 0/1 and may return whole REALs as ints, so BOOL and
    FLOAT result columns are decoded back to Python types."""
    compiled = compile_logical(plan.optimized, _StaticResolver(database))
    conn = sqlite3.connect(":memory:")
    try:
        for table in database.tables:
            schema = table.schema
            columns = ", ".join(
                f'"{a.name}" {_SQL_TYPES[a.atype]}' for a in schema
            )
            conn.execute(f'CREATE TABLE "base_{table.name}" ({columns})')
            marks = ", ".join("?" * len(schema))
            conn.executemany(
                f'INSERT INTO "base_{table.name}" VALUES ({marks})',
                database.relation(table.name).rows,
            )
        rows = conn.execute(render_select(compiled.statement)).fetchall()
    finally:
        conn.close()
    decoders = [
        {AttributeType.BOOL: bool, AttributeType.FLOAT: float}.get(a.atype)
        for a in compiled.schema
    ]
    decoded = [
        tuple(
            value if decode is None or value is None else decode(value)
            for value, decode in zip(row, decoders)
        )
        for row in rows
    ]
    return Relation(compiled.schema, decoded, validate=False)


def _roundtrip(statement, context=""):
    sql = statement.to_sql()
    reparsed = parse_select(sql)
    assert reparsed == statement, f"{context}: {sql}"


def paper_view(sql):
    database = paper_database()
    return database, parse_view(sql, database)


class TestViewPlanRoundTrip:
    VIEWS = [
        # grouped join with local condition
        """CREATE VIEW v AS
           SELECT store.city, SUM(sale.price) AS total, COUNT(*) AS n
           FROM sale, store
           WHERE sale.storeid = store.id AND sale.price > 1
           GROUP BY store.city""",
        # no group-by: aggregation over the whole input
        """CREATE VIEW v AS
           SELECT SUM(sale.price) AS total, COUNT(*) AS n
           FROM sale WHERE sale.price > 2""",
        # HAVING over an aggregate alias
        """CREATE VIEW v AS
           SELECT product.category, COUNT(*) AS n
           FROM sale, product
           WHERE sale.productid = product.id
           GROUP BY product.category
           HAVING n >= 2""",
    ]

    @pytest.mark.parametrize("sql", VIEWS)
    def test_view_statement_roundtrips(self, sql):
        database, view = paper_view(sql)
        plan = view_plan(view, database)
        compiled = compile_logical(plan.optimized, _StaticResolver(database))
        _roundtrip(compiled.statement, view.name)

    @pytest.mark.parametrize("seed", range(25))
    def test_random_view_statements_roundtrip(self, seed):
        scenario = random_scenario(seed)
        plan = view_plan(scenario.view, scenario.database)
        compiled = compile_logical(
            plan.optimized, _StaticResolver(scenario.database)
        )
        _roundtrip(compiled.statement, f"seed={seed}")

    def test_groupby_free_aggregation_filters_empty_group(self):
        database, view = paper_view(self.VIEWS[1])
        plan = view_plan(view, database)
        compiled = compile_logical(plan.optimized, _StaticResolver(database))
        sql = compiled.statement.to_sql()
        # SQL would yield one NULL row over an empty input where the
        # algebra yields none; the generator must filter it out.
        assert compiled.statement.having is not None
        assert "COUNT(*) > 0" in sql
        _roundtrip(compiled.statement)


class TestMaintenanceStageRoundTrip:
    def _stage_statements(self, seed_view_sql, steps=3):
        """Every maintenance stage of a maintainer that has run a mixed
        insert/delete stream (so its plans come from live statistics),
        compiled for each view table and sign."""
        database, view = paper_view(seed_view_sql)
        maintainer = SelfMaintainer(view, database)
        generator = TransactionGenerator(database, seed=7)
        for _ in range(steps):
            maintainer.apply(generator.step())
        resolver = _StageResolver(maintainer, database)
        compiled = []
        for table in view.tables:
            for sign in (+1, -1):
                plans = maintainer.delta_plans(table, sign)
                stages = [plans.local, plans.reduce]
                if plans.propagate is not None:
                    assert isinstance(plans.propagate, AccumulateNode)
                    stages.append(plans.propagate.children[0])
                compiled.extend(
                    compile_physical(stage, resolver) for stage in stages
                )
        return compiled

    def test_executed_stage_statements_roundtrip(self):
        compiled = self._stage_statements(TestViewPlanRoundTrip.VIEWS[0])
        assert compiled, "no maintenance statements were compiled"
        for query in compiled:
            _roundtrip(query.statement)

    def test_join_reduction_renders_exists(self):
        compiled = self._stage_statements(TestViewPlanRoundTrip.VIEWS[0])
        rendered = [query.statement.to_sql() for query in compiled]
        assert any("EXISTS (SELECT 1 FROM" in sql for sql in rendered), (
            "expected a key-probe semijoin as a correlated EXISTS: "
            f"{rendered}"
        )


@given(seed=st.integers(0, 10_000))
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_sqlite_view_evaluation_matches_eager(seed):
    scenario = random_scenario(seed)
    plan = view_plan(scenario.view, scenario.database)
    assert_same_bag(
        run_on_sqlite(plan, scenario.database),
        scenario.view.evaluate_eager(scenario.database),
        f"seed={seed}",
    )


def test_groupby_free_view_yields_no_row_over_empty_input():
    """SQL's empty-input aggregate row (SUM=NULL, COUNT=0) must not
    leak: the algebra yields no group at all (the sqlgen HAVING
    COUNT(*) > 0 adaptation — see engine/aggregates.py)."""
    database, view = paper_view(
        """CREATE VIEW v AS
           SELECT SUM(sale.price) AS total, COUNT(*) AS n
           FROM sale WHERE sale.price > 1000000"""
    )
    result = run_on_sqlite(view_plan(view, database), database)
    assert len(view.evaluate_eager(database)) == 0
    assert len(result) == 0, result.rows


class TestSemiAntiJoinLowering:
    def _scan(self, database, table):
        return L.Scan(table)

    def test_semijoin_is_exists(self):
        database = paper_database()
        node = L.SemiJoin(
            self._scan(database, "sale"),
            self._scan(database, "store"),
            (("sale.storeid", "store.id"),),
        )
        compiled = compile_logical(node, _StaticResolver(database))
        sql = compiled.statement.to_sql()
        assert "EXISTS (SELECT 1 FROM base_store AS store" in sql
        assert "NOT EXISTS" not in sql
        _roundtrip(compiled.statement)

    def test_antijoin_is_not_exists(self):
        database = paper_database()
        node = L.AntiJoin(
            self._scan(database, "sale"),
            self._scan(database, "store"),
            (("sale.storeid", "store.id"),),
        )
        compiled = compile_logical(node, _StaticResolver(database))
        sql = compiled.statement.to_sql()
        assert "NOT EXISTS (SELECT 1 FROM base_store AS store" in sql
        _roundtrip(compiled.statement)

    def test_execution_dialect_differs_only_on_division(self):
        database, view = paper_view(TestViewPlanRoundTrip.VIEWS[0])
        plan = view_plan(view, database)
        compiled = compile_logical(plan.optimized, _StaticResolver(database))
        assert render_select(compiled.statement) == (
            compiled.statement.to_sql()
        )

    def test_grouped_join_is_rejected(self):
        database, view = paper_view(TestViewPlanRoundTrip.VIEWS[0])
        plan = view_plan(view, database)
        with pytest.raises(SqlGenError):
            compile_logical(
                L.SemiJoin(
                    plan.optimized,
                    self._scan(database, "store"),
                    (),
                ),
                _StaticResolver(database),
            )
