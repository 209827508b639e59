"""The maintenance planner: plans built once, sizes read at run time.

Four families:

1. Unit coverage of what is left of the cost layer (the planner name
   stamp and the explicit shared-plan cache).
2. Hypothesis differential properties — for random GPSJ views and
   random delta streams, planned maintenance must match ground-truth
   recomputation on the default backend (CI repeats the suite under
   ``REPRO_BACKEND=columnar``).
3. Plan stability — each ``(table, sign)`` pipeline is compiled once
   and kept, whatever the delta sizes.
4. Restrict-or-scan — :class:`~repro.plan.physical.NeighborRestrictNode`
   decides from exact sizes at execution, and both answers join
   identically.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.maintenance import SelfMaintainer
from repro.engine.deltas import Delta, Transaction
from repro.engine.relation import Relation
from repro.perf import PerfStats
from repro.plan.cost import SharedPlanCache, resolve_planner_name
from repro.plan.executor import ExecutionContext
from repro.plan.physical import DeltaScanNode, NeighborRestrictNode
from repro.warehouse.warehouse import Warehouse
from repro.workloads.random_gen import random_scenario
from repro.workloads.retail import (
    RetailConfig,
    build_retail_database,
    product_sales_max_view,
    product_sales_view,
)
from repro.workloads.streams import TransactionGenerator

from tests.helpers import (
    assert_matches_recomputation,
    paper_database,
)

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Unit coverage: planner name, shared-plan cache.
# ----------------------------------------------------------------------


class TestPlannerSpecs:
    def test_default_is_cost(self):
        assert resolve_planner_name() == "cost"


class TestSharedPlanCache:
    def test_admits_only_selected_keys(self):
        cache = SharedPlanCache(frozenset({"a"}))
        cache["a"] = [1, 2]
        cache["b"] = [3]
        assert "a" in cache and cache["a"] == [1, 2]
        assert "b" not in cache and cache.get("b") is None
        assert len(cache) == 1
        assert (cache.admitted, cache.rejected) == (1, 1)

    def test_empty_selection_caches_nothing(self):
        cache = SharedPlanCache(frozenset())
        cache["a"] = [1]
        assert len(cache) == 0
        assert cache.rejected == 1


# ----------------------------------------------------------------------
# Differential safety: planned maintenance matches recomputation on
# every backend.
# ----------------------------------------------------------------------


@given(seed=st.integers(0, 10_000), steps=st.integers(1, 5))
@settings(**SETTINGS)
def test_cost_matches_recomputation_on_memory(seed, steps):
    scenario = random_scenario(seed)
    maintainer = SelfMaintainer(scenario.view, scenario.database)
    for step in range(steps):
        maintainer.apply(scenario.generator.step())
        assert_matches_recomputation(
            maintainer, scenario.database, f"seed={seed} step={step}"
        )


def test_evaluation_plans_are_planner_independent():
    """Maintenance compiles only delta plans: after the maintainer has
    run transactions, the view-evaluation plan (whose tests assert exact
    row order) still reproduces the eager evaluator row for row."""
    scenario = random_scenario(4242)
    maintainer = SelfMaintainer(scenario.view, scenario.database)
    for __ in range(3):
        maintainer.apply(scenario.generator.step())
    planned = scenario.view.evaluate(scenario.database)
    eager = scenario.view.evaluate_eager(scenario.database)
    assert planned.rows == eager.rows  # exact order, not just bag equality


# ----------------------------------------------------------------------
# Plan stability: one compile per delta shape.
# ----------------------------------------------------------------------


def _sale_inserts(first_id, count):
    """``count`` sale rows spread over every time and product (including
    the 1996 day the view filters out), so deltas hit and miss the
    auxiliary views."""
    return Transaction.of(
        Delta(
            "sale",
            inserted=tuple(
                (first_id + i, 1 + i % 4, 1 + i % 3, 1, 10 + i % 7)
                for i in range(count)
            ),
        )
    )


def test_delta_plans_compile_once_whatever_the_delta_size():
    """A 1-row, a 512-row, then a 1-row insert all run on the one
    ``(sale, +1)`` pipeline compiled for the first: sizes are read at
    execution, so nothing is ever re-planned."""
    database = paper_database()
    maintainer = SelfMaintainer(product_sales_view(1997), database)
    plans = None
    next_id = 1000
    for count in (1, 512, 1):
        tx = _sale_inserts(next_id, count)
        next_id += count
        database.apply(tx)
        maintainer.apply(tx)
        if plans is None:
            plans = maintainer.delta_plans("sale", 1)
        assert maintainer.delta_plans("sale", 1) is plans
        assert_matches_recomputation(maintainer, database, f"rows={count}")
    # The one pipeline's statistics account for every transaction.
    records = maintainer.runtime_stats()["+sale"]
    scans = [r for r in records if r["label"].startswith("Δscan")]
    assert scans and scans[0]["executions"] == 3


# ----------------------------------------------------------------------
# Restrict-or-scan: decided by NeighborRestrictNode from exact sizes.
# ----------------------------------------------------------------------


def _restrict_time(maintainer, sale_rows):
    """Run one ``restrict[time by time.id]`` node over ``sale_rows`` as
    a +sale delta; returns (output rows, X_time rows, index probes)."""
    sale_schema = maintainer._tables["sale"].schema
    x_time = maintainer.aux_relation("time")
    node = NeighborRestrictNode(
        DeltaScanNode("sale", 1),
        "time",
        sale_schema.index_of("sale.timeid"),
        "time.id",
        x_time.schema,
    )
    perf = PerfStats()
    ctx = ExecutionContext(
        providers=maintainer._materializations,
        perf=perf,
        deltas={("sale", 1): Relation(sale_schema, sale_rows, validate=False)},
    )
    output = node.run(ctx)
    return output.rows, x_time.rows, perf.counters["index_probes"]


def _by_hand(x_time_rows, sale_rows):
    """The restriction of ``X_time`` to the rows joining ``sale_rows``."""
    time_ids = {row[1] for row in sale_rows}
    return sorted(row for row in x_time_rows if row[0] in time_ids)


class TestNeighborRestriction:
    def test_small_input_restricts_and_large_input_scans(self):
        database = paper_database()
        maintainer = SelfMaintainer(
            product_sales_view(1997), database, backend="memory"
        )
        x_size = len(maintainer.aux_relation("time"))

        # Fewer input rows than X_time: the node probes the hash index.
        few = [(2000, 2, 1, 1, 10)]
        assert len(few) < x_size
        output, x_time, probes = _restrict_time(maintainer, few)
        assert sorted(output) == _by_hand(x_time, few)
        assert len(output) == 1 and probes == 1

        # At least |X_time| input rows, over every time id (the 1996 one
        # included): the node passes the view through whole, with no
        # probe, and that is exactly the restriction.
        many = [(2001 + i, 1 + i % 4, 1, 1, 10) for i in range(x_size + 1)]
        output, x_time, probes = _restrict_time(maintainer, many)
        assert sorted(output) == _by_hand(x_time, many) == sorted(x_time)
        assert probes == 0

    def test_columnar_tracks_recomputation_across_both_branches(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_BACKEND", "columnar")
        database = paper_database()
        maintainer = SelfMaintainer(product_sales_view(1997), database)
        assert maintainer.backend.name == "columnar"
        next_id = 3000
        for count in (1, 64, 2):
            tx = _sale_inserts(next_id, count)
            next_id += count
            database.apply(tx)
            maintainer.apply(tx)
        assert_matches_recomputation(maintainer, database, "columnar")


# ----------------------------------------------------------------------
# Explicit shared-subplan selection at the warehouse.
# ----------------------------------------------------------------------


def _two_view_warehouse():
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


class TestSharedSubplanSelection:
    def test_selection_is_nonempty_for_overlapping_views(self):
        __, warehouse = _two_view_warehouse()
        selection = warehouse.shared_subplan_selection()
        assert isinstance(selection, frozenset)
        assert selection, "the two retail views share delta subplans"

    def test_cost_mode_admits_selected_results(self):
        database, warehouse = _two_view_warehouse()
        generator = TransactionGenerator(database, seed=7)
        for __ in range(3):
            warehouse.apply(generator.step())
        cache = warehouse.last_shared_cache
        assert isinstance(cache, SharedPlanCache)
        assert cache.admitted > 0, "selected subplan results were cached"

    def test_shared_selection_matches_recomputation(self):
        database, warehouse = _two_view_warehouse()
        generator = TransactionGenerator(database, seed=11)
        for step in range(4):
            warehouse.apply(generator.step())
            for name in warehouse.view_names:
                assert_matches_recomputation(
                    warehouse.maintainer(name),
                    database,
                    f"step={step} view={name}",
                )

    def test_explain_marks_cost_selection(self):
        __, warehouse = _two_view_warehouse()
        report = warehouse.explain_plans()
        assert "shared across views: product_sales, product_sales_max" in report
        assert "[cost-selected]" in report
