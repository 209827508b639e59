"""Fault injection at the backend-commit boundary.

PR 2's harness sweeps every *maintenance* phase; these tests attack the
one boundary it could not reach — ``Backend.commit()`` after every
maintainer succeeded.  A commit failure must behave exactly like an
apply failure: every view rolls back to the pre-transaction state
(bit-identical fingerprints) on every backend, and a retried
``refresh()`` never double-applies what the failed attempt had
propagated.
"""

from __future__ import annotations

import pytest

from repro.core.maintenance import SelfMaintainer
from repro.engine.deltas import Delta, Transaction
from repro.engine.undolog import RollbackError, UndoLog, rollback_all
from repro.testing.faults import state_fingerprint, verify_index_consistency
from repro.warehouse.deferred import DeferredMaintainer
from repro.warehouse.warehouse import Warehouse
from repro.workloads.retail import product_sales_view, product_sales_max_view

from tests.helpers import assert_same_bag, paper_database


class CommitFault(RuntimeError):
    """The deliberate commit-boundary failure."""


def _fail_commit_once(backend):
    """Replace ``backend.commit`` with a raise-once stub; returns a
    restore function."""
    original = backend.commit
    state = {"fired": False}

    def failing_commit():
        if not state["fired"]:
            state["fired"] = True
            raise CommitFault("injected commit failure")
        return original()

    backend.commit = failing_commit
    return lambda: setattr(backend, "commit", original)


BACKENDS = ["memory", "columnar", "sharded:2"]


@pytest.mark.parametrize("backend", BACKENDS)
class TestWarehouseCommitFailure:
    def build(self, backend):
        database = paper_database()
        warehouse = Warehouse(
            database, [product_sales_view(1997)], backend=backend
        )
        return database, warehouse

    def test_commit_failure_rolls_back_all_views(self, backend):
        database, warehouse = self.build(backend)
        maintainer = warehouse.maintainer("product_sales")
        good = Transaction.of(Delta.insertion("sale", [(100, 1, 1, 1, 30)]))
        before = state_fingerprint(maintainer)
        restore = _fail_commit_once(warehouse.backend)
        try:
            with pytest.raises(CommitFault):
                warehouse.apply(good)
            # The in-memory views must not reflect a transaction the
            # backend never committed: bit-identical to pre-transaction.
            assert state_fingerprint(maintainer) == before
            verify_index_consistency(maintainer)
        finally:
            restore()
        # The transaction is retryable once the backend recovers.
        database.apply(good)
        warehouse.apply(good)
        assert_same_bag(
            warehouse.summary("product_sales"),
            product_sales_view(1997).evaluate(database),
        )
        warehouse.close()

    def test_commit_failure_with_two_views(self, backend):
        database = paper_database()
        views = [product_sales_view(1997), product_sales_max_view()]
        warehouse = Warehouse(database, views, backend=backend)
        fingerprints = {
            view.name: state_fingerprint(warehouse.maintainer(view.name))
            for view in views
        }
        restore = _fail_commit_once(warehouse.backend)
        try:
            with pytest.raises(CommitFault):
                warehouse.apply(
                    Transaction.of(
                        Delta.insertion("sale", [(100, 1, 1, 1, 30)])
                    )
                )
            for view in views:
                maintainer = warehouse.maintainer(view.name)
                assert state_fingerprint(maintainer) == fingerprints[view.name]
                verify_index_consistency(maintainer)
        finally:
            restore()
        warehouse.close()


@pytest.mark.parametrize("backend", BACKENDS)
class TestDeferredCommitFailure:
    def test_non_coalesced_commit_failure_keeps_buffer(self, backend):
        """A raise from commit() after all applies succeeded used to
        leak the buffer reset path: the applied transactions stayed
        applied while the buffer survived, so a retried refresh()
        double-applied every one of them."""
        database = paper_database()
        view = product_sales_view(1997)
        maintainer = SelfMaintainer(view, database, backend=backend)
        deferred = DeferredMaintainer(maintainer, coalesce_deltas=False)
        good1 = Transaction.of(Delta.insertion("sale", [(100, 1, 1, 1, 30)]))
        good2 = Transaction.of(Delta.insertion("sale", [(101, 1, 2, 1, 40)]))
        before = state_fingerprint(maintainer)
        deferred.apply(good1)
        deferred.apply(good2)
        restore = _fail_commit_once(maintainer.backend)
        try:
            with pytest.raises(CommitFault):
                deferred.refresh()
            # Buffer intact, applied logs rolled back.
            assert deferred.pending == 2
            assert state_fingerprint(maintainer) == before
            verify_index_consistency(maintainer)
        finally:
            restore()
        # Retry must apply each buffered transaction exactly once.
        database.apply(good1)
        database.apply(good2)
        stats = deferred.refresh()
        assert stats.transactions == 2
        assert_same_bag(deferred.current_view(), view.evaluate(database))
        deferred.close()

    def test_coalesced_commit_failure_keeps_buffer(self, backend):
        database = paper_database()
        view = product_sales_view(1997)
        maintainer = SelfMaintainer(view, database, backend=backend)
        deferred = DeferredMaintainer(maintainer, coalesce_deltas=True)
        good = Transaction.of(Delta.insertion("sale", [(100, 1, 1, 1, 30)]))
        before = state_fingerprint(maintainer)
        deferred.apply(good)
        restore = _fail_commit_once(maintainer.backend)
        try:
            with pytest.raises(CommitFault):
                deferred.refresh()
            assert deferred.pending == 1
            assert state_fingerprint(maintainer) == before
        finally:
            restore()
        database.apply(good)
        deferred.refresh()
        assert_same_bag(deferred.current_view(), view.evaluate(database))
        deferred.close()


class TestAggregateRollback:
    def test_rollback_all_continues_past_failures(self):
        order: list[str] = []
        good1, bad, good2 = UndoLog(), UndoLog(), UndoLog()
        good1.record(lambda: order.append("good1"), rows=1)
        bad.record(lambda: (_ for _ in ()).throw(RuntimeError("broken")))
        good2.record(lambda: order.append("good2"), rows=2)
        with pytest.raises(RollbackError) as excinfo:
            rollback_all([("a", good2), ("b", bad), ("c", good1)])
        # The broken inverse did not stop the others.
        assert order == ["good2", "good1"]
        assert len(excinfo.value.failures) == 1
        assert "broken" in str(excinfo.value)

    def test_rollback_all_counts_perf(self):
        class Perf:
            def __init__(self):
                self.counts = {}

            def count(self, name, amount=1):
                self.counts[name] = self.counts.get(name, 0) + amount

        perf = Perf()
        log = UndoLog()
        log.record(lambda: None, rows=3)
        rollback_all([(perf, log)], perf_for=lambda p: p)
        assert perf.counts == {"rollbacks": 1, "rows_undone": 3}

    def test_warehouse_broken_inverse_still_unwinds_siblings(self, monkeypatch):
        """If one view's rollback raises during a cross-view unwind, the
        other views must still be restored and the failures aggregated."""
        database = paper_database()
        views = [product_sales_view(1997), product_sales_max_view()]
        warehouse = Warehouse(database, views)
        first = warehouse.maintainer("product_sales")
        before = state_fingerprint(first)
        original = UndoLog.rollback
        state = {"fired": False}

        def flaky_rollback(self):
            # The coordinator unwinds in reverse registration order, so
            # the first log it reaches belongs to the *second* view.
            if not state["fired"]:
                state["fired"] = True
                raise RuntimeError("broken inverse")
            return original(self)

        monkeypatch.setattr(UndoLog, "rollback", flaky_rollback)
        restore = _fail_commit_once(warehouse.backend)
        try:
            with pytest.raises(RollbackError) as excinfo:
                warehouse.apply(
                    Transaction.of(
                        Delta.insertion("sale", [(100, 1, 1, 1, 30)])
                    )
                )
        finally:
            restore()
        assert len(excinfo.value.failures) == 1
        # The first view's log still ran: its state is restored.
        assert state_fingerprint(first) == before


class TestCloseAndContextManagers:
    def test_warehouse_context_manager_closes_backend(self, monkeypatch):
        database = paper_database()
        closed = []
        with Warehouse(database, [product_sales_view(1997)]) as warehouse:
            monkeypatch.setattr(
                warehouse.backend, "close", lambda: closed.append(True)
            )
        assert closed == [True]

    def test_deferred_context_manager_closes_backend(self, monkeypatch):
        database = paper_database()
        maintainer = SelfMaintainer(product_sales_view(1997), database)
        closed = []
        with DeferredMaintainer(maintainer) as deferred:
            monkeypatch.setattr(
                maintainer.backend, "close", lambda: closed.append(True)
            )
            deferred.apply(
                Transaction.of(Delta.insertion("sale", [(100, 1, 1, 1, 30)]))
            )
        # close() releases resources but does not flush the buffer.
        assert closed == [True]
        assert deferred.pending == 1
