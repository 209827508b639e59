"""Tests for the query-plan layer (repro.plan)."""

import pytest

from repro.engine.compilecache import cache_stats
from repro.engine.expressions import Column, Comparison, Literal
from repro.engine.deltas import Delta, Transaction
from repro.core.maintenance import SelfMaintainer
from repro.plan.logical import (
    DeltaScan,
    EquiJoin,
    GeneralizedProject,
    Project,
    Scan,
    Select,
    scan_sources,
)
from repro.plan.planner import (
    JoinGraphDisconnected,
    canonical_view_plan,
    evaluate_view,
    join_order,
    push_selections,
    view_plan,
)
from repro.warehouse.warehouse import Warehouse
from repro.workloads.retail import (
    RetailConfig,
    build_retail_database,
    product_sales_max_view,
    product_sales_view,
)
from repro.workloads.streams import TransactionGenerator

from tests.helpers import (
    assert_matches_recomputation,
    assert_same_bag,
    paper_database,
)


def year_is(value):
    return Comparison("=", Column("year", "time"), Literal(value))


class TestLogicalIR:
    def test_structural_equality_and_hashing(self):
        a = Select(Scan("time"), year_is(1997))
        b = Select(Scan("time"), year_is(1997))
        c = Select(Scan("time"), year_is(1998))
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_delta_only_property(self):
        assert DeltaScan("sale", +1).delta_only
        assert not Scan("sale").delta_only
        assert Select(DeltaScan("sale", +1), year_is(1997)).delta_only
        mixed = EquiJoin(
            DeltaScan("sale", +1), Scan("time"), (("time.id", "sale.timeid"),)
        )
        assert not mixed.delta_only

    def test_render_and_sources(self):
        plan = Select(
            EquiJoin(Scan("sale"), Scan("time"), (("time.id", "sale.timeid"),)),
            year_is(1997),
        )
        text = plan.render()
        assert "σ[time.year = 1997]" in text
        assert "⋈[time.id = sale.timeid]" in text
        assert scan_sources(plan) == frozenset({"sale", "time"})

    def test_signed_delta_scans_differ(self):
        assert DeltaScan("sale", +1) != DeltaScan("sale", -1)


class TestPlannerRewrites:
    def test_canonical_plan_shape(self):
        view = product_sales_view(1997)
        plan = canonical_view_plan(view)
        assert isinstance(plan, GeneralizedProject)
        assert scan_sources(plan) == frozenset(view.tables)

    def test_selection_pushdown_lands_on_scan(self):
        view = product_sales_view(1997)
        optimized, pushed = push_selections(canonical_view_plan(view))
        assert pushed, "the year condition should sink"
        tables = [table for __, table in pushed]
        assert "time" in tables
        # No single-table Select survives above the join tree.
        for node in optimized.walk():
            if isinstance(node, Select):
                child = node.child
                assert isinstance(child, (Scan, DeltaScan, Select)) or (
                    len(node.condition.qualifiers()) != 1
                )

    def test_view_plan_annotations(self):
        database = paper_database()
        plan = view_plan(product_sales_view(1997), database)
        rendered = plan.physical.render()
        assert "selection pushed to base-table scan" in rendered
        assert "projection pruned to join + preserved attributes" in rendered
        assert plan.pushed and plan.pruned
        for __, kept in plan.pruned:
            assert kept  # never prune to nothing

    def test_pruned_projections_are_bag_projections(self):
        database = paper_database()
        plan = view_plan(product_sales_view(1997), database)
        for node in plan.optimized.walk():
            if isinstance(node, Project):
                assert node.distinct is False

    def test_view_plan_is_cached(self):
        database = paper_database()
        view = product_sales_view(1997)
        assert view_plan(view, database) is view_plan(view, database)

    def test_join_order_raises_on_disconnected_graph(self):
        with pytest.raises(JoinGraphDisconnected):
            join_order(["a", "b"], [], on_stuck="raise")

    def test_join_order_cross_fallback(self):
        steps = join_order(["a", "b"], [], on_stuck="cross")
        assert steps == [("a", None), ("b", ())]


class TestPlanEvaluation:
    def test_plan_matches_eager_bit_for_bit(self):
        database = paper_database()
        for view in (product_sales_view(1997), product_sales_max_view()):
            planned = evaluate_view(view, database)
            eager = view.evaluate_eager(database)
            assert planned.schema == eager.schema
            assert planned.rows == eager.rows  # identical order, not just bag

    def test_view_evaluate_routes_through_plans(self):
        database = paper_database()
        view = product_sales_view(1997)
        assert view.evaluate(database).rows == view.evaluate_eager(database).rows

    def test_compile_cache_is_exercised(self):
        database = paper_database()
        view = product_sales_view(1997)
        before = cache_stats()["hits"]
        view.evaluate(database)
        view.evaluate(database)
        assert cache_stats()["hits"] > before


def small_retail_warehouse():
    database = build_retail_database(
        RetailConfig(
            days=6,
            stores=2,
            products=8,
            products_sold_per_day=4,
            transactions_per_product=2,
            start_year=1997,
        )
    )
    warehouse = Warehouse(database)
    warehouse.register(product_sales_view(1997))
    warehouse.register(product_sales_max_view())
    return database, warehouse


class TestMaintenancePlans:
    def test_delta_plans_are_cached_per_shape(self):
        database = paper_database()
        maintainer = SelfMaintainer(product_sales_view(1997), database)
        assert maintainer.delta_plans("sale", +1) is maintainer.delta_plans(
            "sale", +1
        )
        assert maintainer.delta_plans("sale", +1) is not maintainer.delta_plans(
            "sale", -1
        )

    def test_planned_maintenance_matches_recomputation(self):
        database = paper_database()
        maintainer = SelfMaintainer(product_sales_view(1997), database)
        generator = TransactionGenerator(database, seed=11)
        for __ in range(15):
            maintainer.apply(generator.step())
        assert_matches_recomputation(maintainer, database)

    def test_set_restriction_off_is_result_identical(self):
        database_a = paper_database()
        database_b = paper_database()
        view = product_sales_view(1997)
        restricted = SelfMaintainer(view, database_a)
        unrestricted = SelfMaintainer(view, database_b)
        unrestricted.set_restriction(False)
        generator = TransactionGenerator(database_a, seed=7)
        for __ in range(12):
            transaction = generator.step()
            database_b.apply(transaction)
            restricted.apply(transaction)
            unrestricted.apply(transaction)
        assert_same_bag(restricted.current_view(), unrestricted.current_view())
        assert_same_bag(restricted.current_view(), view.evaluate(database_a))

    def test_plan_node_timings_recorded(self):
        database = paper_database()
        maintainer = SelfMaintainer(product_sales_view(1997), database)
        transaction = Transaction.of(
            Delta.insertion("sale", [(100, 1, 1, 1, 5)])
        )
        database.apply(transaction)
        maintainer.apply(transaction)
        plan_keys = [k for k in maintainer.perf.seconds if k.startswith("plan:")]
        assert plan_keys, "per-node timings should accumulate under plan:*"
        rendered = maintainer.perf.render()
        assert "plan:" in rendered


class TestWarehouseSharing:
    def test_shared_subplans_hit_across_views(self):
        database, warehouse = small_retail_warehouse()
        generator = TransactionGenerator(database, seed=3)
        for __ in range(10):
            warehouse.apply(generator.step())
        hits = sum(
            warehouse.maintainer(name).perf.counters.get("plan_shared_hits", 0)
            for name in warehouse.view_names
        )
        assert hits >= 1, "two views over sale should share the delta subplan"
        for name, view in (
            ("product_sales", product_sales_view(1997)),
            ("product_sales_max", product_sales_max_view()),
        ):
            assert_same_bag(warehouse.summary(name), view.evaluate(database))

    def test_merged_perf_report(self):
        database, warehouse = small_retail_warehouse()
        generator = TransactionGenerator(database, seed=5)
        for __ in range(4):
            warehouse.apply(generator.step())
        merged = warehouse.perf_report()
        per_view = [warehouse.perf_report(n) for n in warehouse.view_names]
        assert "transactions" in merged
        assert "plan:" in merged
        total = sum(
            warehouse.maintainer(n).perf.counters["transactions"]
            for n in warehouse.view_names
        )
        assert f"{total}" in merged
        for report in per_view:
            assert "transactions" in report

    def test_explain_plans_report(self):
        __, warehouse = small_retail_warehouse()
        report = warehouse.explain_plans()
        for name in warehouse.view_names:
            assert f"view {name}" in report
        assert "selection pushed" in report
        assert "index-backed" in report
        assert "shared across views: product_sales, product_sales_max" in report
