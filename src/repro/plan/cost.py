"""The cost layer: cardinality estimation over the maintained state.

The paper's maintenance pipeline runs entirely against the auxiliary
views, and those are exactly the relations we have perfect bookkeeping
for: every materialization knows its live row count, and every probe
column is backed by a :class:`~repro.engine.rowindex.RowIndex` whose
bucket count *is* the column's distinct-value count — a free histogram,
maintained incrementally.  :class:`StatsCatalog` snapshots those numbers
per planning pass (and is invalidated on rollback, so an aborted
transaction can never leave estimates describing state that no longer
exists).

On top of the catalog sit the textbook estimation formulas the
maintenance planner uses (documented in DESIGN.md):

* semijoin (join reduction) selectivity —
  ``sel = live_distinct(dep key) / domain(dep key)``, where the domain
  is the catalog's high-water mark of the live distinct count (the
  largest key population ever observed, i.e. an upper bound on the
  foreign-key domain that needs no access to the sealed base tables);
* equijoin output — ``|L ⋈ R| = |L|·|R| / max(V(R, join col), 1)``,
  the standard uniform-distribution estimate with the distinct count
  taken on the side we have an index for;
* per-delta input — a feedback hint: the observed mean delta
  cardinality of the same ``(table, sign)`` shape from the plan's
  previous life (``DEFAULT_DELTA_ROWS`` before any observation).

Every maintenance plan is chosen by these estimates (join order, probe
direction, and per-node restriction), with adaptive re-planning when
observations diverge; there is no other planner.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

#: Environment variable holding the adaptive re-plan threshold: a delta
#: plan is invalidated and recompiled when the q-error between a stage's
#: estimated and observed cardinality exceeds this ratio.
REPLAN_RATIO_ENV = "REPRO_REPLAN_RATIO"
DEFAULT_REPLAN_RATIO = 4.0

#: Shared-subplan selection rule: a canonical subtree appearing in k
#: views' delta plans is selected for sharing when the recomputation it
#: saves — estimated rows times the (k - 1) extra computations — is at
#: least this many rows.  At 1.0 every genuinely multi-view subplan
#: with a nonzero estimate qualifies; raising it prunes sharing to the
#: subplans worth a cross-view cache entry.
MIN_SHARED_BENEFIT_ROWS = 1.0

#: Assumed rows per delta before any observation exists for the shape.
#: (The estimate-vs-actual q-error histogram lives in ``repro.perf`` as
#: ``PLANNER_QERROR``, bucketed by ``obs.metrics.QERROR_BUCKETS`` —
#: this module stays import-light so the perf layer can sit below it.)
DEFAULT_DELTA_ROWS = 32.0


class PlannerError(Exception):
    """Raised for an invalid planner configuration."""


def resolve_planner_name() -> str:
    """The maintenance planner's name, for environment stamps: always
    ``"cost"`` (the only planner)."""
    return "cost"


def replan_ratio_from_env() -> float:
    """The configured re-plan q-error threshold (``REPRO_REPLAN_RATIO``)."""
    raw = os.environ.get(REPLAN_RATIO_ENV)
    if not raw:
        return DEFAULT_REPLAN_RATIO
    try:
        ratio = float(raw)
    except ValueError:
        raise PlannerError(
            f"{REPLAN_RATIO_ENV}={raw!r} is not a number"
        ) from None
    if not ratio >= 1.0:  # also rejects NaN, which compares False
        raise PlannerError(f"{REPLAN_RATIO_ENV} must be >= 1.0, got {ratio}")
    return ratio


def q_error(estimated: float, actual: float) -> float:
    """The symmetric estimate-vs-actual ratio ``max(e/a, a/e)``.

    Zero-safe: both sides are floored at one row, so a perfect
    zero-rows prediction scores 1.0 instead of dividing by zero.
    """
    estimated = max(float(estimated), 1.0)
    actual = max(float(actual), 1.0)
    return max(estimated / actual, actual / estimated)


@dataclass
class TableStats:
    """One relation's snapshot: live cardinality plus per-column
    distinct-value counts (filled lazily, column by column)."""

    rows: int
    distinct: dict[str, int] = field(default_factory=dict)


class StatsCatalog:
    """Cardinalities and distinct-value counts over live materializations.

    Reads are snapshot-cached per planning pass: ``len(provider)`` for
    cardinality and ``len(provider.key_values(column))`` for distinct
    counts — the latter is O(1) on the in-memory engines because
    ``key_values`` is a live :meth:`RowIndex.keys` view.  The snapshot
    must be dropped whenever the underlying state moves in a way the
    planner didn't drive:

    * :meth:`invalidate` on every transaction boundary (cheap — the next
      plan build re-reads live state);
    * on **rollback**, via the undo record the maintainer registers:
      both the snapshot and the domain high-water marks are restored,
      so an aborted transaction leaves zero estimate drift.
    """

    def __init__(self, providers):
        self._providers = providers
        self._snapshot: dict[str, TableStats] = {}
        #: High-water marks of observed distinct counts, the planner's
        #: foreign-key domain estimate (never reads sealed base tables).
        self._domains: dict[tuple[str, str], int] = {}

    # -- snapshot lifecycle ------------------------------------------------

    def invalidate(self) -> None:
        """Drop cached snapshots (state changed under the planner)."""
        self._snapshot.clear()

    def domain_snapshot(self) -> dict:
        """A copy of the domain high-water marks (for undo records)."""
        return dict(self._domains)

    def restore_domains(self, snapshot: dict) -> None:
        """Rollback support: put the domain marks back exactly as they
        were before the aborted transaction raised them."""
        self._domains = dict(snapshot)
        self._snapshot.clear()

    # -- reads -------------------------------------------------------------

    def table_rows(self, table: str) -> int:
        """Live cardinality of one materialized auxiliary view."""
        stats = self._snapshot.get(table)
        if stats is None:
            provider = self._providers.get(table)
            stats = TableStats(rows=len(provider) if provider is not None else 0)
            self._snapshot[table] = stats
        return stats.rows

    def distinct_count(self, table: str, column: str) -> int:
        """Distinct values of ``column`` in the materialization (from
        the maintained index; also raises the domain high-water mark)."""
        stats = self._snapshot.get(table)
        if stats is None:
            provider = self._providers.get(table)
            stats = TableStats(rows=len(provider) if provider is not None else 0)
            self._snapshot[table] = stats
        count = stats.distinct.get(column)
        if count is None:
            provider = self._providers.get(table)
            count = len(provider.key_values(column)) if provider is not None else 0
            stats.distinct[column] = count
            key = (table, column)
            if count > self._domains.get(key, 0):
                self._domains[key] = count
        return count

    def domain(self, table: str, column: str) -> int:
        """The foreign-key domain estimate for ``column``: the largest
        distinct count ever observed live (>= the current one)."""
        live = self.distinct_count(table, column)
        return max(self._domains.get((table, column), live), live, 1)

    # -- health checks -----------------------------------------------------

    def drift_report(self) -> list[dict]:
        """Doctor check: cached snapshot entries vs live state.  The
        snapshot must be dropped at every transaction boundary, so any
        cached row count that disagrees with the live materialization
        means an invalidation was missed and the planner is costing
        against stale cardinalities.  Returns one finding per stale
        entry (empty = healthy)."""
        findings: list[dict] = []
        for table, stats in sorted(self._snapshot.items()):
            provider = self._providers.get(table)
            live = len(provider) if provider is not None else 0
            if stats.rows != live:
                findings.append(
                    {
                        "kind": "stale_snapshot",
                        "table": table,
                        "cached_rows": stats.rows,
                        "live_rows": live,
                    }
                )
        return findings

    # -- estimation formulas ----------------------------------------------

    def semijoin_selectivity(self, table: str, column: str) -> float:
        """Fraction of probing rows expected to survive a key-probe
        semijoin against ``table``'s ``column`` key set."""
        return self.distinct_count(table, column) / self.domain(table, column)

    def join_rows(self, left_rows: float, table: str, column: str) -> float:
        """Estimated output of equijoining ``left_rows`` rows against
        the materialization of ``table`` on ``column``."""
        return (
            left_rows
            * self.table_rows(table)
            / max(self.distinct_count(table, column), 1)
        )


class SharedPlanCache:
    """Explicit shared-subplan selection for one warehouse transaction.

    The opportunistic predecessor cached *every* shareable subplan
    result and hoped a sibling view would ask for it.  This cache admits
    only the ``share_key``\\ s the warehouse *selected* — canonical
    logical subtrees appearing in two or more views' delta plans whose
    estimated cost clears the benefit rule (see
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
