"""Crash-consistency property suite: failed transactions change nothing.

The warehouse cannot re-derive ``{V} ∪ X`` from the sealed sources, so
a transaction that fails at *any* point of the maintenance loop must
leave every relation, index, and summary group exactly as it found
them.  These tests inject deterministic faults at every phase boundary
(and drive naturally-failing transactions) and assert state equality
via canonical fingerprints.
"""

import json
import random

import pytest

from repro.core.maintenance import SelfMaintainer, SelfMaintenanceError
from repro.engine.deltas import Delta, Transaction
from repro.engine.relation import Relation, RelationError
from repro.engine.types import AttributeType
from repro.engine.undolog import UndoLog
from repro.perf import PHASES
from repro.testing.faults import (
    FaultInjector,
    InjectedFault,
    state_fingerprint,
    verify_index_consistency,
)
from repro.warehouse.persistence import dump_maintainer, restore_maintainer
from repro.workloads.retail import product_sales_max_view, product_sales_view
from repro.workloads.streams import TransactionGenerator

from tests.helpers import (
    assert_matches_recomputation,
    assert_same_bag,
    paper_database,
)

INJECTABLE_PHASES = tuple(p for p in PHASES if p != "rollback")

#: A transaction exercising deletions, insertions, and a DISTINCT
#: recompute (deleting sale 4 removes the only "bestco" sale of month 1).
MIXED_TX = Transaction.of(
    Delta(
        "sale",
        inserted=((100, 1, 1, 1, 30), (101, 3, 2, 1, 40)),
        deleted=((1, 1, 1, 1, 10), (4, 1, 3, 1, 5)),
    )
)

#: For the single-table MAX view: deleting the group maximum forces a
#: recompute from the auxiliary view.
MAX_TX = Transaction.of(
    Delta(
        "sale",
        inserted=((100, 1, 2, 1, 30),),
        deleted=((9, 4, 1, 1, 99),),
    )
)


class TestEngineUndo:
    """Unit coverage of the engine-level undo plumbing."""

    def make_relation(self):
        return Relation.from_columns(
            ("id", "price"),
            (AttributeType.INT, AttributeType.INT),
            [(1, 10), (2, 20), (2, 20), (3, 30)],
        )

    def test_rollback_restores_bag_and_indexes(self):
        relation = self.make_relation()
        index = relation.index_on("id")
        before_rows = sorted(relation.rows)
        log = UndoLog()
        relation.begin_undo(log)
        relation.insert((4, 40))
        relation.delete((2, 20))
        relation.delete_where(lambda row: row[1] >= 30)
        relation.end_undo()
        assert sorted(relation.rows) != before_rows
        assert log.rollback() > 0
        assert sorted(relation.rows) == before_rows
        from collections import Counter

        assert index.as_multiset() == Counter(relation.rows)

    def test_commit_discards_entries(self):
        relation = self.make_relation()
        log = UndoLog()
        relation.begin_undo(log)
        relation.insert((4, 40))
        relation.end_undo()
        log.commit()
        assert log.rollback() == 0
        assert len(relation) == 5

    def test_index_created_mid_transaction_is_dropped_on_rollback(self):
        relation = self.make_relation()
        log = UndoLog()
        relation.begin_undo(log)
        relation.insert((4, 40))
        index = relation.index_on("price")  # born after the insert
        assert 40 in index.keys()
        relation.end_undo()
        log.rollback()
        # A fresh probe rebuilds a consistent index from the restored bag.
        rebuilt = relation.index_on("price")
        assert rebuilt is not index
        assert 40 not in rebuilt.keys()
        assert len(rebuilt) == len(relation)

    def test_nested_scope_refused(self):
        relation = self.make_relation()
        relation.begin_undo(UndoLog())
        with pytest.raises(RelationError):
            relation.begin_undo(UndoLog())

    def test_rows_undone_accounting(self):
        relation = self.make_relation()
        log = UndoLog()
        relation.begin_undo(log)
        relation.insert((4, 40))
        relation.delete_all([(2, 20), (2, 20)])
        relation.end_undo()
        assert log.rows_recorded == 3
        assert log.rollback() == 3


@pytest.mark.parametrize(
    "make_view,transaction",
    [
        (product_sales_view, MIXED_TX),
        (product_sales_max_view, MAX_TX),
    ],
    ids=["distinct-star", "max-single-table"],
)
def test_rollback_at_every_phase_boundary(make_view, transaction):
    """The tentpole property: for every phase, boundary side, and
    occurrence, an injected fault leaves ``{V} ∪ X`` fingerprint-equal
    to the pre-transaction state, and the maintainer then applies the
    same transaction correctly."""
    view = make_view()
    database = paper_database()
    control = SelfMaintainer(view, database)
    control.apply(transaction)
    database.apply(transaction)
    assert_matches_recomputation(control, database)
    expected = state_fingerprint(control)
    fired_points = 0
    rolled_back_points = 0
    for phase in INJECTABLE_PHASES:
        for when in ("before", "after"):
            for occurrence in (1, 2, 3):
                maintainer = SelfMaintainer(view, paper_database())
                before = state_fingerprint(maintainer)
                injector = FaultInjector(maintainer)
                injector.arm(phase, occurrence=occurrence, when=when)
                try:
                    maintainer.apply(transaction)
                except InjectedFault:
                    fired_points += 1
                    point = f"{phase}/{when}/{occurrence}"
                    assert state_fingerprint(maintainer) == before, point
                    verify_index_consistency(maintainer)
                    # Faults inside the coalesce/validate prelude strike
                    # before any mutation, so nothing needs undoing;
                    # everything later must have rolled back exactly once.
                    rollbacks = maintainer.perf.counters["rollbacks"]
                    if phase in ("coalesce", "validate"):
                        assert rollbacks == 0, point
                    else:
                        assert rollbacks == 1, point
                        rolled_back_points += 1
                    # The rolled-back maintainer must still work.
                    maintainer.apply(transaction)
                injector.uninstall()
                assert state_fingerprint(maintainer) == expected, (
                    f"{phase}/{when}/{occurrence}"
                )
    assert fired_points >= 8  # the sweep genuinely exercised mid-apply faults
    assert rolled_back_points >= 4  # including faults that forced undo work


def test_seeded_stream_with_random_injection_points():
    """Property test over a random (integrity-valid) update stream:
    arbitrary injection points never corrupt state, and the maintained
    view keeps matching full re-evaluation after every recovery."""
    rng = random.Random(7)
    database = paper_database()
    view = product_sales_view(1997)
    maintainer = SelfMaintainer(view, database)
    generator = TransactionGenerator(database, seed=23)
    fired = 0
    for step in range(40):
        transaction = generator.step()
        before = state_fingerprint(maintainer)
        injector = FaultInjector(maintainer)
        injector.arm(
            rng.choice(INJECTABLE_PHASES),
            occurrence=rng.randint(1, 3),
            when=rng.choice(("before", "after")),
        )
        try:
            maintainer.apply(transaction)
        except InjectedFault:
            fired += 1
            assert state_fingerprint(maintainer) == before, f"step={step}"
            verify_index_consistency(maintainer)
            injector.uninstall()
            maintainer.apply(transaction)  # recovery: clean retry
        else:
            injector.uninstall()
        assert_same_bag(
            maintainer.current_view(), view.evaluate(database), f"step={step}"
        )
    assert fired >= 5


def test_natural_fault_mid_apply_rolls_back():
    """A deletion whose detail group does not exist fails *after* the
    summary view was already decremented; the undo log must restore the
    group the deletion wrongly removed."""
    database = paper_database()
    view = product_sales_view(1997)
    maintainer = SelfMaintainer(view, database)
    before = state_fingerprint(maintainer)
    # timeid=3/productid=3 joins fine but no such sale group exists;
    # month 2's only real sale makes the view group vanish first.
    phantom = Transaction.of(Delta.deletion("sale", [(999, 3, 3, 1, 7)]))
    with pytest.raises(SelfMaintenanceError):
        maintainer.apply(phantom)
    assert state_fingerprint(maintainer) == before
    verify_index_consistency(maintainer)
    assert maintainer.perf.counters["rollbacks"] == 1
    assert_same_bag(maintainer.current_view(), view.evaluate(database))


def test_upfront_validation_rejects_before_any_mutation():
    """A malformed row anywhere in the transaction is rejected by the
    validation pass: no mutation happens, so no rollback is needed."""
    database = paper_database()
    maintainer = SelfMaintainer(product_sales_view(1997), database)
    before = state_fingerprint(maintainer)
    bad = Transaction.of(
        Delta(
            "sale",
            inserted=((100, 1, 1, 1, 30),),
            deleted=((1, 1, 1),),  # wrong arity
        )
    )
    with pytest.raises(Exception):
        maintainer.apply(bad)
    assert state_fingerprint(maintainer) == before
    assert maintainer.perf.counters["rollbacks"] == 0
    assert maintainer.perf.counters["rows_undone"] == 0


def test_checkpoint_roundtrip_after_rollback():
    """A rolled-back transaction leaves state that checkpoints and
    restores exactly, and both copies resume identically."""
    database = paper_database()
    view = product_sales_view(1997)
    maintainer = SelfMaintainer(view, database)
    injector = FaultInjector(maintainer)
    injector.arm("aux-apply", when="after")
    with pytest.raises(InjectedFault):
        maintainer.apply(MIXED_TX)
    injector.uninstall()
    checkpoint = json.loads(json.dumps(dump_maintainer(maintainer)))
    restored = restore_maintainer(view, database, checkpoint)
    assert state_fingerprint(restored) == state_fingerprint(maintainer)
    database.apply(MIXED_TX)
    maintainer.apply(MIXED_TX)
    restored.apply(MIXED_TX)
    assert_same_bag(restored.current_view(), maintainer.current_view())
    assert_same_bag(restored.current_view(), view.evaluate(database))


def test_checkpoint_refused_mid_transaction():
    """A checkpoint cut while apply is mutating (here: from inside the
    injected crash) is refused — it could capture partial application."""
    database = paper_database()
    maintainer = SelfMaintainer(product_sales_view(1997), database)
    refused = []

    def attempt_checkpoint():
        try:
            dump_maintainer(maintainer)
        except SelfMaintenanceError as error:
            refused.append(error)

    injector = FaultInjector(maintainer)
    injector.arm("aggregate-fold", on_fire=attempt_checkpoint)
    with pytest.raises(InjectedFault):
        maintainer.apply(MIXED_TX)
    injector.uninstall()
    assert refused, "mid-transaction checkpoint should have been refused"
    dump_maintainer(maintainer)  # between transactions it works again


def test_injector_validation():
    maintainer = SelfMaintainer(product_sales_view(1997), paper_database())
    injector = FaultInjector(maintainer)
    with pytest.raises(ValueError):
        injector.arm("rollback")
    with pytest.raises(ValueError):
        injector.arm("no-such-phase")
    with pytest.raises(ValueError):
        injector.arm("validate", when="during")
    with pytest.raises(ValueError):
        injector.arm("validate", occurrence=0)
    injector.uninstall()


def test_perf_report_surfaces_rollback_counters():
    maintainer = SelfMaintainer(product_sales_view(1997), paper_database())
    with pytest.raises(SelfMaintenanceError):
        maintainer.apply(
            Transaction.of(Delta.deletion("sale", [(999, 3, 3, 1, 7)]))
        )
    rendered = maintainer.perf.render()
    assert "rollbacks" in rendered
    assert "rows_undone" in rendered
    assert "rollback" in maintainer.perf.snapshot()["timings_ms"]
