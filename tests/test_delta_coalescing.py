"""Delta coalescing: churn cancels, and cancelling never changes state.

Satellite properties of the maintenance hot path:

* deleting and re-inserting the very same row within one transaction is
  a no-op on the summary view and on *every* auxiliary view,
* a coalescing maintainer tracks recomputation on any valid stream.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.maintenance import SelfMaintainer
from repro.engine.deltas import Delta, Transaction
from repro.workloads.random_gen import random_scenario
from repro.workloads.retail import paper_mini_database, product_sales_view

from tests.helpers import assert_matches_recomputation

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_delta_coalesced_cancels_multiset_minimum():
    delta = Delta(
        "t",
        inserted=((1, 2), (1, 2), (3, 4)),
        deleted=((1, 2), (5, 6)),
    )
    coalesced = delta.coalesced()
    assert coalesced.inserted == ((1, 2), (3, 4))
    assert coalesced.deleted == ((5, 6),)
    # Net effect (insertions minus deletions) is untouched.
    assert Counter(delta.inserted) - Counter(delta.deleted) == Counter(
        coalesced.inserted
    ) - Counter(coalesced.deleted)
    assert Counter(delta.deleted) - Counter(delta.inserted) == Counter(
        coalesced.deleted
    ) - Counter(coalesced.inserted)


def test_delta_coalesced_is_identity_when_nothing_cancels():
    delta = Delta("t", inserted=((1,),), deleted=((2,),))
    assert delta.coalesced() is delta
    transaction = Transaction.of(delta)
    assert transaction.coalesced() is transaction


rows_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=8
)


@given(inserted=rows_strategy, deleted=rows_strategy)
@settings(max_examples=100, deadline=None)
def test_delta_coalesced_preserves_net_effect(inserted, deleted):
    delta = Delta("t", tuple(inserted), tuple(deleted))
    coalesced = delta.coalesced()
    assert Counter(delta.inserted) - Counter(delta.deleted) == Counter(
        coalesced.inserted
    ) - Counter(coalesced.deleted)
    assert Counter(delta.deleted) - Counter(delta.inserted) == Counter(
        coalesced.deleted
    ) - Counter(coalesced.inserted)
    # Fully-cancelling deltas vanish.
    if Counter(inserted) == Counter(deleted):
        assert coalesced.empty


def snapshot(maintainer):
    return (
        maintainer.current_view().as_multiset(),
        {
            table: maintainer.aux_relation(table).as_multiset()
            for table in maintainer.aux_relations()
        },
    )


def churn_transaction(database, table="sale", count=2):
    """Delete ``count`` existing rows and re-insert them, one transaction."""
    rows = list(database.relation(table))[:count]
    return Transaction.of(Delta(table, inserted=rows, deleted=rows))


def test_same_row_churn_is_noop_everywhere():
    database = paper_mini_database()
    maintainer = SelfMaintainer(product_sales_view(), database)
    before = snapshot(maintainer)
    maintainer.apply(churn_transaction(database, "sale"))
    maintainer.apply(churn_transaction(database, "product", count=1))
    assert snapshot(maintainer) == before
    # 2 sale + 1 product row, each deleted and re-inserted, cancel out.
    assert maintainer.perf.counters["rows_coalesced_away"] == 6


def test_churn_mixed_with_real_changes_nets_out():
    database = paper_mini_database()
    view = product_sales_view()
    churn_rows = list(database.relation("sale"))[:2]
    fresh = (990, 1, 1, 1, 555)
    transaction = Transaction.of(
        Delta(
            "sale",
            inserted=(fresh, *churn_rows),
            deleted=tuple(churn_rows),
        )
    )
    maintainer = SelfMaintainer(view, database)
    maintainer.apply(transaction)
    database.apply(Transaction.of(Delta("sale", inserted=(fresh,))))
    assert_matches_recomputation(maintainer, database)


@given(seed=st.integers(0, 10_000), steps=st.integers(1, 6))
@settings(**SETTINGS)
def test_coalescing_never_changes_final_state(seed, steps):
    scenario = random_scenario(seed)
    maintainer = SelfMaintainer(scenario.view, scenario.database)
    for step in range(steps):
        maintainer.apply(scenario.generator.step())
        assert_matches_recomputation(
            maintainer, scenario.database, f"seed={seed} step={step}"
        )
