"""Differential tests: the plan layer against ground-truth evaluation.

Two families:

1. Hypothesis properties over random GPSJ views and random transaction
   streams — plan-based evaluation must match the retained eager
   evaluator bit for bit, and plan-driven maintenance must track
   recomputation.
2. Fault injection with the plan layer engaged: a fault fired inside a
   maintenance phase — after plan-node caches and the cross-view shared
   result cache have been populated mid-transaction — must leave every
   maintainer's state exactly as fingerprinted before the transaction.
"""

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from repro.core.maintenance import SelfMaintainer
from repro.testing.faults import (
    FaultInjector,
    InjectedFault,
    state_fingerprint,
    verify_index_consistency,
)
from repro.warehouse.warehouse import Warehouse
from repro.workloads.random_gen import random_scenario
from repro.workloads.retail import (
    RetailConfig,
    build_retail_database,
    product_sales_max_view,
    product_sales_view,
)
from repro.workloads.streams import TransactionGenerator

from tests.helpers import assert_matches_recomputation, assert_same_bag

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(seed=st.integers(0, 10_000))
@settings(**SETTINGS)
def test_planned_evaluation_is_bit_identical_to_eager(seed):
    scenario = random_scenario(seed)
    planned = scenario.view.evaluate(scenario.database)
    eager = scenario.view.evaluate_eager(scenario.database)
    assert planned.schema == eager.schema, f"seed={seed}"
    assert planned.rows == eager.rows, f"seed={seed}"  # exact order too


@given(seed=st.integers(0, 10_000), steps=st.integers(1, 6))
@settings(**SETTINGS)
def test_planned_evaluation_tracks_random_streams(seed, steps):
    scenario = random_scenario(seed)
    for step in range(steps):
        scenario.generator.step()
        planned = scenario.view.evaluate(scenario.database)
        eager = scenario.view.evaluate_eager(scenario.database)
        assert planned.rows == eager.rows, f"seed={seed} step={step}"


@given(seed=st.integers(0, 10_000), steps=st.integers(1, 6))
@settings(**SETTINGS)
def test_planned_maintenance_tracks_recomputation(seed, steps):
    scenario = random_scenario(seed)
    maintainer = SelfMaintainer(scenario.view, scenario.database)
    for step in range(steps):
        maintainer.apply(scenario.generator.step())
        assert_matches_recomputation(
            maintainer, scenario.database, f"seed={seed} step={step}"
        )


def two_view_warehouse():
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


class TestFaultInjectionWithPlans:
    """Undo-log atomicity holds with plan-node caches and the shared
    cross-view result cache populated mid-transaction."""

    @pytest.mark.parametrize(
        "phase", ["local-reduce", "join-reduce", "aggregate-fold", "aux-apply"]
    )
    def test_fault_mid_plan_rolls_back_all_views(self, phase):
        database, warehouse = two_view_warehouse()
        generator = TransactionGenerator(database, seed=41)
        # tx1 populates delta-plan caches, indexes, and exercises the
        # shared result dict before any fault is armed.
        warehouse.apply(generator.step())
        fingerprints = {
            name: state_fingerprint(warehouse.maintainer(name))
            for name in warehouse.view_names
        }
        victim = warehouse.view_names[-1]
        injector = FaultInjector(warehouse.maintainer(victim))
        injector.arm(phase)
        tx2 = generator.next_transaction()
        with pytest.raises(InjectedFault):
            warehouse.apply(tx2)
        for name in warehouse.view_names:
            maintainer = warehouse.maintainer(name)
            assert state_fingerprint(maintainer) == fingerprints[name], (
                f"view {name} not rolled back after fault in {phase}"
            )
            verify_index_consistency(maintainer)
        # After disarming, the same transaction applies cleanly and the
        # summaries match ground truth.
        injector.uninstall()
        database.apply(tx2)
        warehouse.apply(tx2)
        for name, view in (
            ("product_sales", product_sales_view(1997)),
            ("product_sales_max", product_sales_max_view()),
        ):
            assert_same_bag(warehouse.summary(name), view.evaluate(database))

    def test_fault_in_first_view_leaves_second_untouched(self):
        database, warehouse = two_view_warehouse()
        generator = TransactionGenerator(database, seed=43)
        warehouse.apply(generator.step())
        fingerprints = {
            name: state_fingerprint(warehouse.maintainer(name))
            for name in warehouse.view_names
        }
        first = warehouse.view_names[0]
        injector = FaultInjector(warehouse.maintainer(first))
        injector.arm("aggregate-fold")
        tx = generator.next_transaction()
        with pytest.raises(InjectedFault):
            warehouse.apply(tx)
        injector.uninstall()
        for name in warehouse.view_names:
            assert state_fingerprint(warehouse.maintainer(name)) == (
                fingerprints[name]
            )
            verify_index_consistency(warehouse.maintainer(name))
