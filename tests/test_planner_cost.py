"""The cost-based maintenance planner: correctness and adaptivity.

Four families:

1. Unit coverage of the cost primitives (planner name, q-error, the
   re-plan threshold, the explicit shared-plan cache).
2. Hypothesis differential properties — for random GPSJ views and
   random delta streams, cost-planned maintenance must match
   ground-truth recomputation on the default backend (CI repeats the
   suite under ``REPRO_BACKEND=columnar``).  The
   cost layer only reorders provably order-insensitive work, so this
   is the load-bearing safety property.
3. The adaptive feedback loop — a deterministically planted
   misestimate must trigger exactly one re-plan, and the recompiled
   plan's estimates must converge so no further re-plans fire.
4. Statistics hygiene — an aborted transaction must leave the
   catalog's domain high-water marks and snapshots exactly as they
   were (no estimate drift after rollback).
"""

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from repro.core.maintenance import SelfMaintainer
from repro.engine.deltas import Delta, Transaction
from repro.perf import PLANNER_QERROR
from repro.plan.cost import (
    DEFAULT_REPLAN_RATIO,
    PlannerError,
    SharedPlanCache,
    q_error,
    replan_ratio_from_env,
    resolve_planner_name,
)
from repro.testing.faults import FaultInjector, InjectedFault
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
    assert_same_bag,
    paper_database,
)

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Unit coverage: planner name, q-error, thresholds, shared-plan cache.
# ----------------------------------------------------------------------


class TestPlannerSpecs:
    def test_default_is_cost(self):
        assert resolve_planner_name() == "cost"

    def test_replan_ratio_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPLAN_RATIO", raising=False)
        assert replan_ratio_from_env() == DEFAULT_REPLAN_RATIO
        monkeypatch.setenv("REPRO_REPLAN_RATIO", "2.5")
        assert replan_ratio_from_env() == 2.5
        for bad in ("0.5", "nan"):
            monkeypatch.setenv("REPRO_REPLAN_RATIO", bad)
            with pytest.raises(PlannerError, match=">= 1.0"):
                replan_ratio_from_env()
        monkeypatch.setenv("REPRO_REPLAN_RATIO", "lots")
        with pytest.raises(PlannerError, match="not a number"):
            replan_ratio_from_env()


class TestQError:
    def test_symmetric(self):
        assert q_error(10, 40) == q_error(40, 10) == 4.0

    def test_perfect_estimate_scores_one(self):
        assert q_error(7, 7) == 1.0

    def test_zero_safe(self):
        assert q_error(0, 0) == 1.0
        assert q_error(0, 5) == 5.0


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
# Differential safety: cost-planned maintenance matches recomputation
# on every backend.
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
    """Cost choices apply only to delta plans: after the maintenance
    planner has compiled and re-planned against live statistics, the
    view-evaluation plan (whose tests assert exact row order) still
    reproduces the eager evaluator row for row."""
    scenario = random_scenario(4242)
    maintainer = SelfMaintainer(scenario.view, scenario.database)
    for __ in range(3):
        maintainer.apply(scenario.generator.step())
    planned = scenario.view.evaluate(scenario.database)
    eager = scenario.view.evaluate_eager(scenario.database)
    assert planned.rows == eager.rows  # exact order, not just bag equality


# ----------------------------------------------------------------------
# The adaptive feedback loop.
# ----------------------------------------------------------------------


def _sale_insert(sale_id):
    return Transaction.of(
        Delta("sale", inserted=((sale_id, 1, 1, 1, 10),))
    )


class TestAdaptiveReplanning:
    def make_maintainer(self):
        database = paper_database()
        view = product_sales_view(1997)
        return database, SelfMaintainer(view, database)

    def warm(self, database, maintainer, count=3, start=500):
        """Apply single-row sale inserts until the feedback loop has
        settled (the initial DEFAULT_DELTA_ROWS guess itself re-plans)."""
        for offset in range(count):
            tx = _sale_insert(start + offset)
            database.apply(tx)
            maintainer.apply(tx)

    def test_forced_misestimate_triggers_one_replan(self):
        database, maintainer = self.make_maintainer()
        self.warm(database, maintainer)
        before = maintainer.perf.counters["replans"]

        # Plant a wildly wrong estimate for the (sale, +1) shape; the
        # next single-row insert observes q-error 50000 >> the ratio.
        maintainer.set_estimate_hint("sale", +1, local_rows=50_000.0)
        tx = _sale_insert(600)
        database.apply(tx)
        maintainer.apply(tx)
        assert maintainer.perf.counters["replans"] == before + 1

        # The re-plan recorded the observation: the recompiled plan
        # estimates one row, so further single-row inserts converge
        # (q-error 1.0) and never re-plan again.
        after = maintainer.perf.counters["replans"]
        for sale_id in (601, 602, 603):
            tx = _sale_insert(sale_id)
            database.apply(tx)
            maintainer.apply(tx)
        assert maintainer.perf.counters["replans"] == after
        plans = maintainer.delta_plans("sale", +1)
        assert plans.stage_estimates()["local"] == 1.0

        # Correctness is untouched throughout.
        assert_same_bag(
            maintainer.current_view(),
            product_sales_view(1997).evaluate_eager(database),
        )

    def test_qerror_histogram_observes_every_checked_stage(self):
        database, maintainer = self.make_maintainer()
        self.warm(database, maintainer, count=2)
        summary = maintainer.perf.histogram_summary(PLANNER_QERROR)
        assert summary["count"] > 0

    def test_replan_emits_trace_event(self):
        from repro.obs.trace import Tracer

        database = paper_database()
        tracer = Tracer(sample_every=1)
        maintainer = SelfMaintainer(
            product_sales_view(1997), database, tracer=tracer
        )
        tx = _sale_insert(700)
        database.apply(tx)
        maintainer.apply(tx)  # first compile guesses 32 rows, sees 1
        spans = [
            span
            for trace in tracer.traces
            for span in trace.spans
            if span.name == "replan"
        ]
        assert spans, "expected a replan trace event on the misestimate"
        assert spans[0].attrs["table"] == "sale"

    def test_runtime_stats_survive_a_replan(self):
        """Observed per-node statistics carry over from a retired plan
        onto its recompiled replacement."""
        database, maintainer = self.make_maintainer()
        self.warm(database, maintainer, count=4)
        stats = maintainer.runtime_stats()
        records = stats["+sale"]
        total_execs = sum(r["executions"] for r in records)
        assert total_execs > 0
        # Every warm-up transaction is accounted for on the delta scan,
        # replans notwithstanding.
        delta_scans = [r for r in records if r["label"].startswith("Δscan")]
        assert delta_scans and delta_scans[0]["executions"] == 4


# ----------------------------------------------------------------------
# Statistics hygiene: rollback leaves no estimate drift.
# ----------------------------------------------------------------------


class TestRollbackStatsHygiene:
    @pytest.mark.parametrize(
        "phase", ["local-reduce", "join-reduce", "aggregate-fold", "aux-apply"]
    )
    def test_aborted_transaction_restores_domains(self, phase):
        database = paper_database()
        maintainer = SelfMaintainer(product_sales_view(1997), database)
        # Warm one transaction so plans exist and domains are populated.
        tx = _sale_insert(900)
        database.apply(tx)
        maintainer.apply(tx)
        before_domains = maintainer.stats_catalog.domain_snapshot()
        before_aux = {
            table: len(relation)
            for table, relation in maintainer.aux_relations().items()
        }

        injector = FaultInjector(maintainer)
        injector.arm(phase)
        failing = Transaction.of(
            Delta(
                "sale",
                inserted=tuple(
                    (910 + i, 1 + (i % 3), 1 + (i % 2), 1, 10 + i)
                    for i in range(8)
                ),
            )
        )
        with pytest.raises(InjectedFault):
            maintainer.apply(failing)
        injector.uninstall()

        assert maintainer.stats_catalog.domain_snapshot() == before_domains, (
            f"domain high-water marks drifted after rollback in {phase}"
        )
        catalog = maintainer.stats_catalog
        for table, rows in before_aux.items():
            assert catalog.table_rows(table) == rows, (
                f"cardinality estimate for {table} stale after rollback"
            )

    def test_first_transaction_abort_restores_empty_catalog(self):
        """The plan compile happens *inside* the first transaction, so
        its domain writes must be undone with everything else."""
        database = paper_database()
        maintainer = SelfMaintainer(product_sales_view(1997), database)
        assert maintainer.stats_catalog.domain_snapshot() == {}
        injector = FaultInjector(maintainer)
        injector.arm("aggregate-fold")
        with pytest.raises(InjectedFault):
            maintainer.apply(_sale_insert(950))
        injector.uninstall()
        assert maintainer.stats_catalog.domain_snapshot() == {}
        # ... and the maintainer still works afterwards.
        tx = _sale_insert(951)
        database.apply(tx)
        maintainer.apply(tx)
        assert_same_bag(
            maintainer.current_view(),
            product_sales_view(1997).evaluate_eager(database),
        )


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
