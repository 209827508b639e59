"""Deferred (batch) maintenance: the nightly-refresh operating mode.

Warehouses commonly buffer the source change stream and refresh summary
tables periodically.  :class:`DeferredMaintainer` wraps a
:class:`~repro.core.maintenance.SelfMaintainer`, queues transactions,
and propagates them on :meth:`refresh` — optionally *coalesced* into one
net transaction first, so churn (rows inserted and deleted between
refreshes) is never propagated at all.  Exactness is unaffected: the net
transaction reaches the same source state, and maintenance is exact with
respect to states, not histories.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.maintenance import SelfMaintainer
from repro.engine.deltas import Transaction, coalesce
from repro.engine.relation import Relation
from repro.engine.undolog import UndoLog, rollback_all
from repro.perf import REFRESH_PROPAGATED_ROWS


class StaleViewError(Exception):
    """Raised when a stale read is attempted without opting in."""


@dataclass(frozen=True)
class RefreshStats:
    """What one refresh propagated."""

    transactions: int
    buffered_rows: int
    propagated_rows: int

    @property
    def cancelled_rows(self) -> int:
        return self.buffered_rows - self.propagated_rows


class DeferredMaintainer:
    """Buffers transactions; propagates them on refresh."""

    def __init__(self, maintainer: SelfMaintainer, coalesce_deltas: bool = True):
        self._inner = maintainer
        self._coalesce = coalesce_deltas
        self._buffer: list[Transaction] = []
        # Backlog depth as a live gauge in the maintainer's registry, so
        # metrics exports show how stale the deferred view currently is.
        self._pending_gauge = maintainer.perf.registry.gauge(
            "repro_deferred_pending_transactions", view=maintainer.view.name
        )

    @property
    def view(self):
        return self._inner.view

    @property
    def pending(self) -> int:
        """Buffered transactions awaiting the next refresh."""
        return len(self._buffer)

    def apply(self, transaction: Transaction) -> None:
        """Queue a source transaction (no maintenance work yet)."""
        if not transaction.empty:
            self._buffer.append(transaction)
            self._pending_gauge.set(len(self._buffer))

    def discard(self, transaction: Transaction) -> bool:
        """Drop one buffered occurrence of ``transaction`` (the operator
        response to a poison transaction rejected by :meth:`refresh`);
        returns whether anything was removed."""
        try:
            self._buffer.remove(transaction)
        except ValueError:
            return False
        self._pending_gauge.set(len(self._buffer))
        return True

    def refresh(self) -> RefreshStats:
        """Propagate everything buffered since the last refresh.

        All-or-nothing: if any buffered transaction is rejected, the
        transactions already propagated by this call are rolled back,
        the buffer is left intact, and the exception propagates — so a
        retried ``refresh()`` (say, after :meth:`discard`-ing the
        offender) never double-applies the ones that had succeeded.
        """
        buffered_rows = sum(
            len(delta.inserted) + len(delta.deleted)
            for transaction in self._buffer
            for delta in transaction
        )
        count = len(self._buffer)
        if self._coalesce:
            net = coalesce(self._buffer)
            propagated_rows = sum(
                len(delta.inserted) + len(delta.deleted) for delta in net
            )
            if not net.empty:
                self._inner.apply(net)  # atomic on its own; buffer kept on raise
        else:
            propagated_rows = buffered_rows
            applied: list[UndoLog] = []
            try:
                for transaction in self._buffer:
                    log = UndoLog()
                    self._inner.apply(transaction, undo=log)
                    applied.append(log)
                # Every per-transaction scope succeeded; commit them on
                # the backend in one step (the coalesced path commits
                # inside the standalone apply above).  A commit failure
                # is treated exactly like an apply failure: the applied
                # logs roll back and the buffer stays intact, so a
                # retried refresh() never double-applies.
                self._inner.backend.commit()
            except Exception:
                perf = self._inner.perf
                rollback_all(
                    ((perf, log) for log in reversed(applied)),
                    perf_for=lambda p: p,
                )
                raise
        self._buffer = []
        self._pending_gauge.set(0)
        self._inner.perf.observe(REFRESH_PROPAGATED_ROWS, propagated_rows)
        return RefreshStats(count, buffered_rows, propagated_rows)

    def current_view(self, allow_stale: bool = False) -> Relation:
        """The summary table; refuses stale reads unless opted in."""
        self._check_fresh(allow_stale)
        return self._inner.current_view()

    def aux_relation(self, table: str, allow_stale: bool = False) -> Relation:
        """One current-detail table; stale like the summary whenever
        transactions are buffered, so the same opt-in applies."""
        self._check_fresh(allow_stale)
        return self._inner.aux_relation(table)

    def detail_size_bytes(self, allow_stale: bool = False) -> int:
        self._check_fresh(allow_stale)
        return self._inner.detail_size_bytes()

    def close(self) -> None:
        """Release the wrapped maintainer's backend resources.  Buffered
        transactions are *not* flushed — call :meth:`refresh` first if
        they must land."""
        self._inner.backend.close()

    def __enter__(self) -> "DeferredMaintainer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def _check_fresh(self, allow_stale: bool) -> None:
        if self._buffer and not allow_stale:
            raise StaleViewError(
                f"{self.pending} transactions pending; call refresh() or "
                "read with allow_stale=True"
            )
