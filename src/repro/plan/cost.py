"""The plan layer's cross-view sharing cache and planner stamp.

Maintenance plans are compiled once per ``(table, sign)`` delta shape
from the view's structure alone (see
:class:`~repro.plan.maintenance.MaintenancePlanner`); the one size-driven
choice, restrict-or-scan, is taken inside
:class:`~repro.plan.physical.NeighborRestrictNode` at execution, from
the exact input and materialization sizes, so no plan needs an
estimate.  This module holds :class:`SharedPlanCache`, the planned
cross-view sharing of one warehouse transaction, and
:func:`resolve_planner_name`, which the benchmark harness stamps into
its environment record.
"""

from __future__ import annotations


def resolve_planner_name() -> str:
    """The maintenance planner's name, for environment stamps: always
    ``"cost"`` (the only planner)."""
    return "cost"


class SharedPlanCache:
    """Explicit shared-subplan selection for one warehouse transaction.

    The opportunistic predecessor cached *every* shareable subplan
    result and hoped a sibling view would ask for it.  This cache admits
    only the ``share_key``\\ s the warehouse *selected* — canonical
    logical subtrees appearing in two or more views' delta plans (see
    ``Warehouse.shared_subplan_selection``) — which is multi-query
    optimization in the Mistry et al. sense: sharing is a planned
    decision, not a cache accident.  Non-selected results are dropped on
    write, so sibling maintainers recompute them privately.

    The mapping surface matches what the executors use (``get`` /
    ``in`` / ``[]``), so :meth:`PhysicalNode.run` and the backends need
    no special-casing.
    """

    __slots__ = ("selected", "_store", "admitted", "rejected")

    def __init__(self, selected: frozenset):
        self.selected = selected
        self._store: dict = {}
        self.admitted = 0
        self.rejected = 0

    def get(self, key, default=None):
        return self._store.get(key, default)

    def __contains__(self, key) -> bool:
        return key in self._store

    def __getitem__(self, key):
        return self._store[key]

    def __setitem__(self, key, value) -> None:
        if key in self.selected:
            self._store[key] = value
            self.admitted += 1
        else:
            self.rejected += 1

    def __len__(self) -> int:
        return len(self._store)
