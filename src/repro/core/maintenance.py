"""Incremental self-maintenance of ``{V} ∪ X`` (Sections 2.2 and 3.2).

The :class:`SelfMaintainer` materializes the auxiliary views and the
summary view once, at initialization, and from then on updates both from
source deltas **without any base-table access**:

* Deltas are *locally reduced* (local selection conditions) and
  *join-reduced* (semijoined with the auxiliary views of the tables the
  changed table depends on).
* The surviving delta rows are joined with the other auxiliary views via
  the same compiled row program that full reconstruction uses, yielding
  per-group contributions; CSMAS aggregates are updated incrementally
  with the ``f(a * cnt0)`` duplicate correction.
* Non-CSMAS aggregates (MIN/MAX, DISTINCT) are updated incrementally
  where Table 1 allows (insertions) and recomputed *from the auxiliary
  views* — never from base tables — where it does not (Section 3.2's
  maintenance discussion).  Aggregates over tables pinned by a key
  group-by are constant within each group and never need recomputation,
  which is what makes root-elimination safe in their presence.

Transactions are processed with deletions flowing root-to-leaves and
insertions leaves-to-root, so every semijoin sees the auxiliary state
the paper's reduction arguments assume.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

from repro.backends.base import Backend, make_backend
from repro.catalog.database import Database
from repro.core.derivation import (
    AuxiliaryView,
    AuxiliaryViewSet,
    derive_auxiliary_views,
)
from repro.core.joingraph import Annotation, ExtendedJoinGraph
from repro.core.rewrite import (
    AggregateCategory,
    GroupAccumulator,
    Reconstructor,
)
from repro.core.view import ViewDefinition
from repro.engine.deltas import Transaction
from repro.engine.expressions import conjoin
from repro.engine.operators import AggregateItem, select
from repro.engine.relation import Relation
from repro.engine.rowindex import make_tuple_extractor
from repro.engine.schema import Schema
from repro.engine.undolog import UndoLog
from repro.obs.trace import Tracer
from repro.perf import (
    PLANNER_QERROR,
    TXN_DELTA_ROWS,
    TXN_LATENCY_MS,
    TXN_ROWS_PER_SEC,
    PerfStats,
)
from repro.plan.cost import StatsCatalog, q_error, replan_ratio_from_env
from repro.plan.executor import ExecutionContext
from repro.plan.maintenance import (
    DeltaPlans,
    MaintenancePlanner,
    transfer_runtime_stats,
)


class SelfMaintenanceError(Exception):
    """Raised when a delta is inconsistent with the maintained state."""


class AuxMaterialization:
    """Live contents of one auxiliary view.

    Every probe — join-reduction key lookups and ``rows_matching``
    restrictions — is served from hash indexes that are maintained
    *incrementally* as deltas fold in, so per-transaction cost follows
    the delta, not the auxiliary view.
    """

    def __init__(self, aux: AuxiliaryView):
        self.aux = aux
        self.schema = aux.output_schema()

    def load(self, relation: Relation) -> None:
        raise NotImplementedError

    def relation(self) -> Relation:
        raise NotImplementedError

    def apply(self, base_rows: list[tuple], sign: int) -> None:
        """Fold reduced base-table rows in (+1) or out (-1)."""
        raise NotImplementedError

    def begin_undo(self, log: UndoLog) -> None:
        """Enter a transaction scope: every mutation until
        :meth:`end_undo` records its inverse into ``log``."""
        raise NotImplementedError

    def end_undo(self) -> None:
        raise NotImplementedError

    def key_values(self, column: str):
        """Distinct values of ``column`` (a set-like, O(1)-membership view).

        Join reductions probe the same (key) column on every delta of a
        referencing table; the maintained index makes the probe O(1) with
        no rebuild ever.
        """
        raise NotImplementedError

    def rows_matching(self, column: str, values: set) -> list[tuple]:
        """Output rows whose ``column`` value is in ``values``.

        Served from an incrementally-maintained hash index, so probing a
        large compressed root view with a handful of dimension keys does
        not pay a full scan (or a full hash build in the join).
        """
        raise NotImplementedError

    def size_bytes(self) -> int:
        return self.relation().size_bytes()

    def __len__(self) -> int:
        return len(self.relation())


class ProjectionMaterialization(AuxMaterialization):
    """A degenerate (PSJ) auxiliary view: raw projected rows, key retained.

    Probes are served by :class:`~repro.engine.rowindex.RowIndex`
    instances registered on the backing relation, so every
    insert/delete keeps them in step without rebuilds.
    """

    def __init__(self, aux: AuxiliaryView):
        super().__init__(aux)
        self._project = make_tuple_extractor(
            tuple(aux.base_schema.index_of(name) for name in aux.plan.pinned)
        )
        self._relation = Relation(self.schema)

    def load(self, relation: Relation) -> None:
        if relation.schema != self.schema:
            raise SelfMaintenanceError(
                f"loaded relation does not match {self.aux.name} schema"
            )
        self._relation = relation.copy()

    def relation(self) -> Relation:
        return self._relation

    def apply(self, base_rows: list[tuple], sign: int) -> None:
        projected = list(map(self._project, base_rows))
        if sign > 0:
            self._relation.insert_all(projected)
        else:
            self._relation.delete_all(projected)

    def begin_undo(self, log: UndoLog) -> None:
        self._relation.begin_undo(log)

    def end_undo(self) -> None:
        self._relation.end_undo()

    def key_values(self, column: str):
        return self._relation.index_on(column).keys()

    def rows_matching(self, column: str, values: set) -> list[tuple]:
        return self._relation.index_on(column).rows_matching(values)


class CompressedMaterialization(AuxMaterialization):
    """A duplicate-compressed auxiliary view: grouped sums plus COUNT(*).

    Kept as a dictionary from pinned-attribute values to running
    ``[sum..., count]`` vectors; groups vanish when their count drops to
    zero, so the materialization is always exactly ``Π_{A_Ri}`` of the
    reduced detail data.
    """

    def __init__(self, aux: AuxiliaryView):
        super().__init__(aux)
        plan = aux.plan
        self._pin_indexes = [
            aux.base_schema.index_of(name) for name in plan.pinned
        ]
        self._sum_indexes = [
            aux.base_schema.index_of(name) for name in plan.folded_sums
        ]
        self._min_indexes = [
            aux.base_schema.index_of(name) for name in plan.folded_mins
        ]
        self._max_indexes = [
            aux.base_schema.index_of(name) for name in plan.folded_maxs
        ]
        self._groups: dict[tuple, list] = {}
        self._cache: Relation | None = None
        self._hash_indexes: dict[str, dict] = {}
        self._pin_slots = {
            name: slot for slot, name in enumerate(plan.pinned)
        }
        self._undo: UndoLog | None = None
        self._undo_saved: set[tuple] = set()

    def load(self, relation: Relation) -> None:
        if relation.schema != self.schema:
            raise SelfMaintenanceError(
                f"loaded relation does not match {self.aux.name} schema"
            )
        width = len(self.aux.plan.pinned)
        self._groups = {
            row[:width]: list(row[width:]) for row in relation
        }
        self._cache = None
        self._hash_indexes.clear()

    def relation(self) -> Relation:
        if self._cache is None:
            rows = [
                key + tuple(totals) for key, totals in self._groups.items()
            ]
            self._cache = Relation(self.schema, rows, validate=False)
        return self._cache

    def apply(self, base_rows: list[tuple], sign: int) -> None:
        if not base_rows:
            return
        if sign < 0 and (self._min_indexes or self._max_indexes):
            raise SelfMaintenanceError(
                f"{self.aux.name} holds folded MIN/MAX (append-only mode) "
                "and cannot absorb deletions"
            )
        self._cache = None
        n_sums = len(self._sum_indexes)
        n_extrema = len(self._min_indexes) + len(self._max_indexes)
        count_slot = n_sums + n_extrema
        for row in base_rows:
            key = tuple(row[i] for i in self._pin_indexes)
            totals = self._groups.get(key)
            if self._undo is not None and key not in self._undo_saved:
                self._undo_saved.add(key)
                snapshot = None if totals is None else list(totals)
                self._undo.record(
                    lambda k=key, t=snapshot: self._restore_group(k, t),
                    rows=1,
                )
            if totals is None:
                if sign < 0:
                    raise SelfMaintenanceError(
                        f"{self.aux.name}: deletion from absent group {key!r}"
                    )
                totals = self._groups[key] = (
                    [0] * n_sums
                    + [row[i] for i in self._min_indexes]
                    + [row[i] for i in self._max_indexes]
                    + [0]
                )
            for slot, index in enumerate(self._sum_indexes):
                totals[slot] += sign * row[index]
            slot = n_sums
            for index in self._min_indexes:
                totals[slot] = min(totals[slot], row[index])
                slot += 1
            for index in self._max_indexes:
                totals[slot] = max(totals[slot], row[index])
                slot += 1
            if totals[count_slot] == 0 and sign > 0:
                self._index_group(key, add=True)
            totals[count_slot] += sign
            if totals[count_slot] == 0:
                del self._groups[key]
                self._index_group(key, add=False)
            elif totals[count_slot] < 0:
                raise SelfMaintenanceError(
                    f"{self.aux.name}: negative count in group {key!r}"
                )

    def begin_undo(self, log: UndoLog) -> None:
        self._undo = log
        self._undo_saved = set()
        # Recorded first, so LIFO runs it after every group restore:
        # derived state (relation cache, group-key hash indexes) is
        # dropped wholesale and rebuilt lazily on next use.
        log.record(self._drop_derived_state)

    def end_undo(self) -> None:
        self._undo = None
        self._undo_saved = set()

    def _restore_group(self, key: tuple, totals: list | None) -> None:
        """Inverse of this transaction's mutations of one group."""
        if totals is None:
            self._groups.pop(key, None)
        else:
            self._groups[key] = totals

    def _drop_derived_state(self) -> None:
        self._cache = None
        self._hash_indexes.clear()

    def _index_group(self, key: tuple, add: bool) -> None:
        for column, index in self._hash_indexes.items():
            value = key[self._pin_slots[column.split(".", 1)[1]]]
            if add:
                index.setdefault(value, set()).add(key)
            else:
                bucket = index.get(value)
                if bucket is not None:
                    bucket.discard(key)
                    if not bucket:
                        del index[value]

    def _group_index(self, column: str) -> dict:
        """The ``value -> {group keys}`` index on ``column``, built once
        and then maintained by :meth:`_index_group` as groups come and go."""
        index = self._hash_indexes.get(column)
        if index is None:
            slot = self._pin_slots.get(column.split(".", 1)[1])
            if slot is None:
                raise SelfMaintenanceError(
                    f"{self.aux.name} has no pinned column {column!r} to index"
                )
            index = self._hash_indexes[column] = {}
            for key in self._groups:
                index.setdefault(key[slot], set()).add(key)
        return index

    def key_values(self, column: str):
        return self._group_index(column).keys()

    def rows_matching(self, column: str, values: set) -> list[tuple]:
        index = self._group_index(column)
        rows: list[tuple] = []
        for value in values:
            for key in index.get(value, ()):
                rows.append(key + tuple(self._groups[key]))
        return rows


def make_materialization(aux: AuxiliaryView) -> AuxMaterialization:
    if aux.is_compressed:
        return CompressedMaterialization(aux)
    return ProjectionMaterialization(aux)


def processing_order(graph: ExtendedJoinGraph) -> tuple[str, ...]:
    """Tables root-to-leaves (deletion order; reversed for insertions)."""
    order: list[str] = []
    stack = [graph.root]
    while stack:
        table = stack.pop()
        order.append(table)
        stack.extend(reversed(graph.children(table)))
    return tuple(order)


def _delta_rows(transaction: Transaction) -> int:
    return sum(
        len(delta.inserted) + len(delta.deleted) for delta in transaction
    )


#: Shared no-op span: ``nullcontext`` is stateless and re-entrant, so
#: every untraced phase reuses one instance instead of allocating one
#: per phase per transaction.
_NULL_SPAN = nullcontext(None)


def _phase_span(trace, name: str, **attrs):
    """A phase span on ``trace``, or a no-op context yielding None when
    the transaction is untraced — call sites stay branch-free."""
    if trace is None:
        return _NULL_SPAN
    return trace.span(name, kind="phase", **attrs)


@dataclass(slots=True)
class GroupState:
    """Maintained state of one group of ``V``."""

    count: int
    sums: dict[int, float] = field(default_factory=dict)
    values: dict[int, object] = field(default_factory=dict)


@dataclass(frozen=True)
class _TableInfo:
    """Precompiled delta-processing plan for one base table."""

    table: str
    schema: Schema
    local_predicate: object  # compiled predicate or None
    reductions: tuple[tuple[int, str, str], ...]  # (fk index, dep table, dep key)


@dataclass(frozen=True)
class _RewriteInfo:
    """How an update of one dimension row rewrites groups of ``V`` when
    the root auxiliary view was eliminated."""

    table: str
    key_index: int
    anchor: str                      # nearest key-annotated ancestor
    anchor_position: int             # its key's slot in the group key
    path: tuple[tuple[str, str, str], ...]  # upward (parent, fk, key) hops
    group_positions: tuple[tuple[int, int], ...]   # (key slot, attr index)
    aggregate_rewrites: tuple[tuple[int, int], ...]  # (item index, attr index)


class SelfMaintainer:
    """Maintains ``V`` and ``X`` from deltas, never touching base tables."""

    def __init__(
        self,
        view: ViewDefinition,
        database: Database,
        aux_set: AuxiliaryViewSet | None = None,
        graph: ExtendedJoinGraph | None = None,
        append_only: bool = False,
        initialize: bool = True,
        tracer: Tracer | None = None,
        backend: Backend | str | None = None,
        events: "EventLog | None" = None,
    ):
        """``append_only`` maintains the view as *old detail data*
        (Section 4): only insertions are accepted, in exchange for
        folding MIN/MAX into the compressed auxiliary views.
        ``initialize=False`` skips the one-time base-table load; the
        caller must then populate the maintainer via
        :meth:`load_state` (warehouse restart from a checkpoint).
        ``tracer`` optionally installs a :class:`~repro.obs.trace.Tracer`
        that samples transactions into structured span trees (root span
        per :meth:`apply`, phase spans, nested plan-node spans); with the
        default ``None`` the hot path pays no tracing cost at all.
        ``backend`` selects the execution backend holding ``X`` and
        running the compiled plans: a :class:`~repro.backends.Backend`
        instance, a name (``"memory"``, ``"columnar"``, ``"sharded:<N>"``),
        or ``None`` to consult the ``REPRO_BACKEND`` environment
        variable (default memory).  Delta plans are chosen per compile
        from live cardinality statistics (join order, probe direction,
        restriction), with adaptive re-planning on misestimates.
        ``events`` optionally attaches a structured
        :class:`~repro.obs.log.EventLog`: the maintainer narrates
        transaction begin/commit/rollback and planner re-plans into it,
        correlated with the active trace when one exists."""
        self.view = view
        self.append_only = append_only
        self.backend = make_backend(backend)
        self.graph = graph or ExtendedJoinGraph(view, database)
        self.aux_set = aux_set or derive_auxiliary_views(
            view, database, self.graph, append_only=append_only
        )
        self.reconstructor = Reconstructor(view, self.aux_set, database)
        self.perf = PerfStats()
        self.tracer = tracer
        self.events = events
        self._replan_ratio = replan_ratio_from_env()
        self.backend.prepare_view(
            view,
            database,
            self.graph,
            self.aux_set,
            namespace=view.name,
            append_only=append_only,
        )
        self._materializations: dict[str, AuxMaterialization] = {
            aux.table: self.backend.make_materialization(
                aux, namespace=view.name
            )
            for aux in self.aux_set
        }
        self._eliminated = frozenset(self.aux_set.eliminated)
        self._root = self.graph.root
        self._order = self._processing_order()
        self._tables = {
            table: self._table_info(view, database, table)
            for table in view.tables
        }
        self._stats = StatsCatalog(self._materializations)
        self._planner = MaintenancePlanner(
            view,
            database,
            self.graph,
            self.aux_set,
            self.reconstructor,
            self._order,
            self._stats,
        )
        self._delta_plans: dict[tuple[str, int], DeltaPlans] = {}
        self._retired_plans: dict[tuple[str, int], DeltaPlans] = {}
        self._constant_tables = self._group_constant_tables()
        self._varying_items = frozenset(
            index
            for index, category in self.reconstructor.categories.items()
            if category in (AggregateCategory.EXTREMUM, AggregateCategory.DISTINCT)
            and self._item_table(index) not in self._constant_tables
        )
        self._constant_items = frozenset(
            index
            for index, category in self.reconstructor.categories.items()
            if category in (AggregateCategory.EXTREMUM, AggregateCategory.DISTINCT)
            and index not in self._varying_items
        )
        if (
            self._varying_items
            and self._root in self._eliminated
            and not append_only
        ):
            raise SelfMaintenanceError(
                "internal invariant violated: root eliminated with varying "
                "non-CSMAS aggregates present"
            )
        self._rewrite_info = self._build_rewrite_info(database)
        self._groups: dict[tuple, GroupState] = {}
        self._undo: UndoLog | None = None
        self._undo_saved_groups: set[tuple] = set()
        self._group_saves: list[tuple[tuple, tuple | None]] = []
        if initialize:
            self._initialize(database)

    # ------------------------------------------------------------------
    # Setup.
    # ------------------------------------------------------------------

    def _processing_order(self) -> tuple[str, ...]:
        return processing_order(self.graph)

    def _table_info(
        self, view: ViewDefinition, database: Database, table: str
    ) -> _TableInfo:
        schema = database.table(table).schema
        conditions = view.local_conditions(table)
        predicate = (
            conjoin(conditions).compile(schema) if conditions else None
        )
        reductions = []
        if table not in self._eliminated:
            for join in self.aux_set.for_table(table).reduced_by:
                reductions.append(
                    (
                        schema.index_of(join.left_attribute),
                        join.right_table,
                        f"{join.right_table}.{join.right_attribute}",
                    )
                )
        else:
            for join in view.joins_from(table):
                reductions.append(
                    (
                        schema.index_of(join.left_attribute),
                        join.right_table,
                        f"{join.right_table}.{join.right_attribute}",
                    )
                )
        return _TableInfo(table, schema, predicate, tuple(reductions))

    def _group_constant_tables(self) -> frozenset[str]:
        """Tables whose attributes are constant within every group of V:
        every table in the subtree of a key-annotated vertex."""
        constant: set[str] = set()
        for table in self.view.tables:
            if self.graph.annotation(table) is Annotation.KEY:
                constant.update(self.graph.subtree(table))
        return frozenset(constant)

    def _item_table(self, index: int) -> str:
        item = self.view.projection[index]
        if not isinstance(item, AggregateItem) or item.column is None:
            return self._root
        return item.column.qualifier

    def _build_rewrite_info(
        self, database: Database
    ) -> dict[str, "_RewriteInfo"]:
        """Precompute, for each contributing dimension table, how a
        delete+insert of one of its rows (an update) rewrites the groups
        of ``V`` when the root auxiliary view was eliminated.

        Elimination guarantees every contributing dimension lies in the
        subtree of a key-annotated vertex (otherwise the root would be in
        its Need set), so each affected group is pinned by that anchor's
        key in the group key and can be rewritten in place — exactly the
        "Need(Ri) identifies the affected view tuples" argument of
        Section 3.3.
        """
        if self._root not in self._eliminated:
            return {}
        group_items = [
            (position, item)
            for position, item in enumerate(self.view.group_by_items)
        ]
        info: dict[str, _RewriteInfo] = {}
        for table in self.view.tables:
            if table == self._root:
                continue
            schema = database.table(table).schema
            group_positions = tuple(
                (position, schema.index_of(item.column.name))
                for position, item in group_items
                if item.column.qualifier == table
            )
            aggregate_rewrites = tuple(
                (index, schema.index_of(self.view.projection[index].column.name))
                for index in self.reconstructor.categories
                if self._item_table(index) == table
            )
            if not group_positions and not aggregate_rewrites:
                continue
            anchor, path = self._anchor_path(table, database)
            anchor_position = next(
                position
                for position, item in group_items
                if item.column.qualifier == anchor
                and item.column.name == database.table(anchor).key
            )
            info[table] = _RewriteInfo(
                table=table,
                key_index=database.table(table).key_index(),
                anchor=anchor,
                anchor_position=anchor_position,
                path=path,
                group_positions=group_positions,
                aggregate_rewrites=aggregate_rewrites,
            )
        return info

    def _anchor_path(
        self, table: str, database: Database
    ) -> tuple[str, tuple[tuple[str, str, str], ...]]:
        """The nearest key-annotated ancestor of ``table`` (inclusive) and
        the chain of (parent table, qualified foreign key, qualified
        parent key) hops walking *upward* from ``table`` to that anchor."""
        chain: list[tuple[str, str, str]] = []
        current = table
        while True:
            if self.graph.annotation(current) is Annotation.KEY:
                return current, tuple(chain)
            parent = self.graph.parent(current)
            if parent is None or parent == self._root:
                raise SelfMaintenanceError(
                    "internal invariant violated: contributing table "
                    f"{table!r} has no key-annotated anchor although the "
                    "root auxiliary view was eliminated"
                )
            join = next(
                j for j in self.view.joins_from(parent)
                if j.right_table == current
            )
            chain.append(
                (
                    parent,
                    f"{parent}.{join.left_attribute}",
                    f"{parent}.{database.table(parent).key}",
                )
            )
            current = parent

    def _initialize(self, database: Database) -> None:
        """One-time materialization from the live base tables."""
        relations: dict[str, Relation] = {}
        for table in reversed(self._order):  # leaves first: deps available
            if table in self._eliminated:
                continue
            aux = self.aux_set.for_table(table)
            computed = aux.compute(database, relations)
            self._materializations[table].load(computed)
            relations[table] = self._materializations[table].relation()
        mapping = self._current_relations()
        for table in self._eliminated:
            relation = database.relation(table)
            conditions = self.view.local_conditions(table)
            if conditions:
                relation = select(relation, conjoin(conditions))
            mapping[table] = relation
        for key, acc in self.reconstructor.accumulate(mapping).items():
            if acc.multiplicity > 0:
                self._groups[key] = self._state_from_accumulator(acc)

    def _state_from_accumulator(self, acc: GroupAccumulator) -> GroupState:
        values: dict[int, object] = {}
        for index, value in acc.extrema.items():
            values[index] = value
        for index, collected in acc.distincts.items():
            item = self.view.projection[index]
            values[index] = self.reconstructor.finalize_distinct(item, collected)
        return GroupState(acc.multiplicity, dict(acc.sums), values)

    # ------------------------------------------------------------------
    # Accessors.
    # ------------------------------------------------------------------

    @property
    def eliminated_tables(self) -> frozenset[str]:
        return self._eliminated

    @property
    def in_transaction(self) -> bool:
        """Whether an :meth:`apply` is currently mutating state.  Reads
        taken while this is true (e.g. from a checkpoint daemon) may
        observe a partially-applied transaction."""
        return self._undo is not None

    def aux_relation(self, table: str) -> Relation:
        return self._materializations[table].relation()

    def aux_relations(self) -> dict[str, Relation]:
        return self._current_relations()

    def _current_relations(self) -> dict[str, Relation]:
        return {
            table: materialization.relation()
            for table, materialization in self._materializations.items()
        }

    def detail_size_bytes(self) -> int:
        """Total current-detail storage under the paper's size model."""
        return sum(m.size_bytes() for m in self._materializations.values())

    def current_view(self) -> Relation:
        """The maintained summary table ``V``."""
        rows = [
            self._state_row(key, state) for key, state in self._groups.items()
        ]
        result = Relation(self.reconstructor.output_schema, rows, validate=False)
        if self.view.having is not None:
            result = select(result, self.view.having)
        return result

    def summary_row(self, key: tuple) -> tuple | None:
        """The current summary row for one group key, or ``None`` when
        the group is absent (deleted or never created).  HAVING is *not*
        applied — this is the raw maintained group, the unit the serving
        layer's version patches carry (its snapshots apply HAVING at
        read time, like :meth:`current_view` does)."""
        state = self._groups.get(key)
        if state is None:
            return None
        return self._state_row(key, state)

    def group_rows(self) -> dict[tuple, tuple]:
        """Every maintained group as ``{group key: summary row}`` (no
        HAVING) — the full-state seed for a versioned snapshot store."""
        return {
            key: self._state_row(key, state)
            for key, state in self._groups.items()
        }

    def _state_row(self, key: tuple, state: GroupState) -> tuple:
        out: list[object] = []
        key_iter = iter(key)
        categories = self.reconstructor.categories
        for index, item in enumerate(self.view.projection):
            if not isinstance(item, AggregateItem):
                out.append(next(key_iter))
                continue
            category = categories[index]
            if category is AggregateCategory.COUNT:
                out.append(state.count)
            elif category is AggregateCategory.SUM:
                out.append(state.sums[index])
            elif category is AggregateCategory.AVG:
                out.append(state.sums[index] / state.count)
            else:
                out.append(state.values[index])
        return tuple(out)

    # ------------------------------------------------------------------
    # Delta processing.
    # ------------------------------------------------------------------

    def apply(
        self,
        transaction: Transaction,
        undo: UndoLog | None = None,
        shared: dict | None = None,
    ) -> None:
        """Maintain ``V`` and ``X`` under one source transaction, atomically.

        Validation that needs no mutation (schema checks on every delta
        row, the append-only constraint) runs first; every mutation after
        that records its inverse in an undo log, and any exception rolls
        all auxiliary views, their indexes, cached derived state, and the
        summary groups back to the pre-transaction state before
        re-raising — partial application would be unrecoverable, since
        the sealed sources cannot re-derive ``{V} ∪ X``.

        When ``undo`` is supplied, the inverse operations are handed to
        the caller on success instead of being discarded, so a
        coordinator (:meth:`repro.warehouse.warehouse.Warehouse.apply`,
        a deferred refresh loop) can roll this transaction back after
        a *later* participant fails.  On failure this maintainer always
        rolls its own mutations back before re-raising; nothing is
        appended to ``undo`` in that case.

        ``shared`` is an optional per-transaction cache of delta-only
        subplan results, keyed by logical plan node.  A warehouse passes
        one dict to every maintainer it drives for a transaction, so
        structurally identical subplans (the coalesced, locally-reduced
        delta of a table two views both read) are computed once.

        When a :attr:`tracer` is installed and samples this transaction,
        the whole call is recorded as a span tree; either way the
        registry's per-transaction histograms (latency, delta rows,
        throughput) observe every *successful* application.
        """
        tracer = self.tracer
        events = self.events
        trace = None
        if tracer is not None:
            trace = tracer.begin(f"txn:{self.view.name}", view=self.view.name)
        ctx = None if trace is None else trace.context()
        rows_in = _delta_rows(transaction)
        if events is not None:
            events.debug(
                "txn.begin", ctx=ctx, view=self.view.name, rows=rows_in
            )
        started = perf_counter()
        try:
            self._apply_traced(transaction, undo, shared, trace, rows_in)
        except Exception as exc:
            if events is not None:
                events.error(
                    "txn.rollback",
                    ctx=ctx,
                    view=self.view.name,
                    rows=rows_in,
                    error=type(exc).__name__,
                )
            if trace is not None:
                trace.root.rows_in = rows_in
                tracer.finish(trace, status="error")
            raise
        elapsed = perf_counter() - started
        perf = self.perf
        perf.observe(TXN_LATENCY_MS, elapsed * 1000.0)
        perf.observe(TXN_DELTA_ROWS, rows_in)
        if elapsed > 0.0:
            perf.observe(TXN_ROWS_PER_SEC, rows_in / elapsed)
        if events is not None:
            events.debug(
                "txn.commit",
                ctx=ctx,
                view=self.view.name,
                rows=rows_in,
                ms=round(elapsed * 1000.0, 3),
            )
        if trace is not None:
            trace.root.rows_in = rows_in
            tracer.finish(trace)

    def _apply_traced(
        self,
        transaction: Transaction,
        undo: UndoLog | None,
        shared: dict | None,
        trace,
        rows_in: int | None = None,
    ) -> None:
        """The body of :meth:`apply` (``trace`` is None when unsampled;
        ``rows_in``, when the caller already counted the delta rows,
        avoids a second pass over the transaction)."""
        perf = self.perf
        perf.count("transactions")
        if self.append_only:
            offenders = [
                delta.table
                for delta in transaction
                if delta.deleted and delta.table in self.view.tables
            ]
            if offenders:
                raise SelfMaintenanceError(
                    f"append-only detail data received deletions on "
                    f"{offenders!r}"
                )
        before = rows_in if rows_in is not None else _delta_rows(transaction)
        with _phase_span(trace, "coalesce") as span, perf.timer("coalesce"):
            coalesced = transaction.coalesced()
        if span is not None:
            span.rows_in = before
            span.rows_out = _delta_rows(coalesced)
        if coalesced is not transaction:
            perf.count("rows_coalesced_away", before - _delta_rows(coalesced))
            transaction = coalesced
        with _phase_span(trace, "validate") as span, perf.timer("validate"):
            validated = self._validate_transaction(transaction)
        if span is not None:
            span.rows_in = span.rows_out = sum(
                len(ins) + len(dels) for ins, dels in validated.values()
            )
        log = UndoLog()
        self._begin_transaction(log)
        try:
            self._apply_validated(transaction, validated, shared, trace)
        except Exception:
            self._end_transaction()
            with _phase_span(trace, "rollback") as span, perf.timer("rollback"):
                undone = log.rollback()
            if span is not None:
                span.rows_out = undone
            perf.count("rollbacks")
            perf.count("rows_undone", undone)
            raise
        self._end_transaction()
        if undo is not None:
            # A coordinator owns the transaction: it absorbs the undo
            # entries (including the backend's scope restore) and
            # commits the backend itself once all participants succeed.
            undo.absorb(log)
        else:
            try:
                self.backend.commit()
            except Exception:
                # A failed commit is a failed transaction: the in-memory
                # views must not keep state the backend never made
                # durable.
                with _phase_span(trace, "rollback") as span, perf.timer(
                    "rollback"
                ):
                    undone = log.rollback()
                if span is not None:
                    span.rows_out = undone
                perf.count("rollbacks")
                perf.count("rows_undone", undone)
                raise

    def _validate_transaction(
        self, transaction: Transaction
    ) -> dict[str, tuple[list[tuple], list[tuple]]]:
        """Schema-validate every delta row of every view table upfront.

        Raising here is guaranteed to leave the maintainer untouched, so
        a malformed row in the *last* delta of a transaction never costs
        a rollback of work done for the earlier ones."""
        validated: dict[str, tuple[list[tuple], list[tuple]]] = {}
        for delta in transaction:
            info = self._tables.get(delta.table)
            if info is None:
                continue  # not a view table: maintenance never reads it
            validated[delta.table] = (
                info.schema.validate_rows(delta.inserted),
                info.schema.validate_rows(delta.deleted),
            )
        return validated

    def _begin_transaction(self, log: UndoLog) -> None:
        self._undo = log
        self._undo_saved_groups = set()
        self._group_saves = []
        # Estimate hygiene: the stats snapshot describes pre-transaction
        # state, and an abort must also take back the domain high-water
        # marks this transaction's inserts raise — otherwise rolled-back
        # key populations would keep depressing selectivity estimates
        # forever.  Recorded *first* so the LIFO rollback restores the
        # catalog last, after every materialization inverse has run.
        domains = self._stats.domain_snapshot()
        log.record(lambda s=domains: self._stats.restore_domains(s))
        self._stats.invalidate()
        # The backend's scope opens next, below every materialization
        # inverse, so any restore it registers runs after every
        # materialization inverse (and before the catalog's).
        self.backend.begin_transaction(log)
        for materialization in self._materializations.values():
            materialization.begin_undo(log)

    def _end_transaction(self) -> None:
        self._undo = None
        self._undo_saved_groups = set()
        self._group_saves = []
        for materialization in self._materializations.values():
            materialization.end_undo()
        # The committed state moved; the next plan compile re-reads it.
        self._stats.invalidate()

    def _save_group(self, key: tuple) -> None:
        """Record the inverse of this transaction's mutations of one
        summary group (a value snapshot, taken once per key).

        Snapshots accumulate on one per-transaction list behind a
        single undo closure (registered at the first save), so a
        transaction touching many groups pays one entry, not one
        closure per group.  Each key still publishes its own redo
        record: the inverse log flipped forward names the exact set of
        changed summary keys (what the serving layer's copy-on-write
        snapshot chain publishes as a patch)."""
        undo = self._undo
        saved = self._undo_saved_groups
        if undo is None or key in saved:
            return
        saved.add(key)
        saves = self._group_saves
        if not saves:
            undo.record(lambda s=saves: self._restore_group_saves(s))
        state = self._groups.get(key)
        saves.append(
            (
                key,
                None
                if state is None
                else (state.count, dict(state.sums), dict(state.values)),
            )
        )
        undo.note_redo(key, rows=1)

    def _restore_group_saves(
        self, saves: list[tuple[tuple, tuple | None]]
    ) -> None:
        """Inverse of one transaction's summary-group mutations: put
        every first-touch snapshot back (or drop groups that did not
        exist).  Keys are unique per transaction, so replay order does
        not matter; reversed keeps the LIFO discipline legible."""
        groups = self._groups
        for key, snapshot in reversed(saves):
            if snapshot is None:
                groups.pop(key, None)
            else:
                count, sums, values = snapshot
                groups[key] = GroupState(count, sums, values)

    def _apply_validated(
        self,
        transaction: Transaction,
        validated: dict[str, tuple[list[tuple], list[tuple]]],
        shared: dict | None = None,
        trace=None,
    ) -> None:
        """The mutation half of :meth:`apply` (runs inside the undo scope)."""
        perf = self.perf
        dirty: set[tuple] = set()
        rewrites = self._plan_rewrites(transaction)
        for table in self._order:
            __, deleted = validated.get(table, ((), ()))
            if deleted:
                self._process_delta(table, deleted, -1, dirty, shared, trace)
        self._apply_rewrites(rewrites)
        for table in reversed(self._order):
            inserted, __ = validated.get(table, ((), ()))
            if inserted:
                self._process_delta(table, inserted, +1, dirty, shared, trace)
        if dirty:
            perf.count("groups_recomputed", len(dirty))
            with _phase_span(trace, "recompute") as span, perf.timer("recompute"):
                self._recompute_groups(dirty)
            if span is not None:
                span.rows_out = len(dirty)

    # ------------------------------------------------------------------
    # Dimension updates under an eliminated root (Section 3.3).
    #
    # With no root auxiliary view, a dimension delete+insert of the same
    # key (an update) cannot flow through the generic join path.  The
    # Need-set argument guarantees each affected group is pinned by the
    # key of the dimension's nearest key-annotated ancestor, so the
    # groups are located through the group key, their dimension-derived
    # group-by values and group-constant aggregates rewritten in place,
    # and their counts carried over unchanged (no detail rows moved).
    # ------------------------------------------------------------------

    def _plan_rewrites(
        self, transaction: Transaction
    ) -> dict[tuple, list[tuple["_RewriteInfo", tuple | None]]]:
        """Match deleted-to-inserted dimension rows by key and locate the
        affected live groups — all against pre-transaction state."""
        if not self._rewrite_info:
            return {}
        planned: dict[tuple, list[tuple[_RewriteInfo, tuple | None]]] = {}
        anchor_cache: dict[int, dict[object, list[tuple]]] = {}
        for table, info in self._rewrite_info.items():
            delta = transaction.delta_for(table)
            if not delta.deleted:
                continue
            table_info = self._tables[table]
            replacements: dict[object, tuple | None] = {}
            for row in delta.inserted:
                validated = table_info.schema.validate_row(row)
                replacements[validated[info.key_index]] = validated
            for row in delta.deleted:
                validated = table_info.schema.validate_row(row)
                if table_info.local_predicate is not None and not (
                    table_info.local_predicate(validated)
                ):
                    continue  # contributed nothing before the change
                new_row = replacements.get(validated[info.key_index])
                if new_row is not None and not self._row_survives(
                    table_info, new_row
                ):
                    new_row = None
                anchor_ids = self._anchor_ids(info, validated[info.key_index])
                if not anchor_ids:
                    continue
                for key in self._affected_groups(info, anchor_ids, anchor_cache):
                    planned.setdefault(key, []).append((info, new_row))
        return planned

    def _affected_groups(
        self,
        info: "_RewriteInfo",
        anchor_ids: set,
        cache: dict[int, dict[object, list[tuple]]],
    ):
        """Live group keys pinned to any of ``anchor_ids``.

        Answered from an ``anchor value -> group keys`` index built once
        per transaction, so updates rewrite only the groups they touch.
        """
        position = info.anchor_position
        index = cache.get(position)
        if index is None:
            index = cache[position] = {}
            for key in self._groups:
                index.setdefault(key[position], []).append(key)
        if len(anchor_ids) == 1:
            return index.get(next(iter(anchor_ids)), ())
        # Multi-anchor chains are rare; scan to keep V's group order.
        return [k for k in self._groups if k[position] in anchor_ids]

    def _row_survives(self, table_info: "_TableInfo", row: tuple) -> bool:
        """Local + join reductions for a single replacement row."""
        if table_info.local_predicate is not None and not (
            table_info.local_predicate(row)
        ):
            return False
        for fk_index, dep_table, dep_key in table_info.reductions:
            keys = self._materializations[dep_table].key_values(dep_key)
            if row[fk_index] not in keys:
                return False
        return True

    def _anchor_ids(self, info: "_RewriteInfo", key_value: object) -> set:
        """Keys of the anchor table whose join chain reaches ``key_value``
        (computed from the dimension auxiliary views, pre-transaction)."""
        ids = {key_value}
        for parent, fk_column, key_column in info.path:
            materialization = self._materializations[parent]
            rows = materialization.rows_matching(fk_column, ids)
            key_index = materialization.schema.index_of(key_column)
            ids = {row[key_index] for row in rows}
            if not ids:
                break
        return ids

    def _apply_rewrites(
        self,
        rewrites: dict[tuple, list[tuple["_RewriteInfo", tuple | None]]],
    ) -> None:
        for old_key, operations in rewrites.items():
            self._save_group(old_key)
            state = self._groups.pop(old_key, None)
            if state is None:
                continue  # the group died during the deletion phase
            if any(new_row is None for __, new_row in operations):
                # The dimension row was not (validly) re-inserted: with
                # referential integrity this cannot happen for a live
                # group, so drop it defensively.
                continue
            new_key = list(old_key)
            for info, new_row in operations:
                for key_slot, attr_index in info.group_positions:
                    new_key[key_slot] = new_row[attr_index]
                self._rewrite_state(state, info, new_row)
            restored = tuple(new_key)
            if restored in self._groups:
                raise SelfMaintenanceError(
                    f"group rewrite collision at {restored!r}"
                )
            self._save_group(restored)
            self._groups[restored] = state

    def _rewrite_state(
        self, state: GroupState, info: "_RewriteInfo", new_row: tuple
    ) -> None:
        categories = self.reconstructor.categories
        for item_index, attr_index in info.aggregate_rewrites:
            value = new_row[attr_index]
            category = categories[item_index]
            if category is AggregateCategory.COUNT:
                continue
            if category in (AggregateCategory.SUM, AggregateCategory.AVG):
                # Group-constant attribute: the sum is value x multiplicity.
                state.sums[item_index] = value * state.count
            elif category is AggregateCategory.EXTREMUM:
                state.values[item_index] = value
            else:
                item = self.view.projection[item_index]
                state.values[item_index] = self.reconstructor.finalize_distinct(
                    item, {value}
                )

    def delta_plans(self, table: str, sign: int) -> DeltaPlans:
        """The compiled maintenance pipeline for one delta shape, built
        once per (table, sign) and reused for every transaction (until
        an adaptive re-plan retires it; the retired pipeline's observed
        stats carry over onto the recompiled one)."""
        key = (table, sign)
        plans = self._delta_plans.get(key)
        if plans is None:
            plans = self._delta_plans[key] = self._planner.build(table, sign)
            retired = self._retired_plans.pop(key, None)
            if retired is not None:
                transfer_runtime_stats(retired, plans)
        return plans

    def runtime_stats(self) -> dict:
        """Observed per-node plan statistics of every compiled delta
        pipeline, keyed ``'+table'``/``'-table'``.  The accumulators live
        on the cached plan nodes, so after a transaction stream this is
        the full observed-cardinality profile of the maintenance work
        (see ``explain --analyze``)."""
        stats = {
            ("+" if sign > 0 else "-") + table: plans.runtime_stats()
            for (table, sign), plans in sorted(self._delta_plans.items())
        }
        for (table, sign), plans in sorted(self._retired_plans.items()):
            # A shape retired by a re-plan and not yet recompiled still
            # owns its observed history.
            stats.setdefault(
                ("+" if sign > 0 else "-") + table, plans.runtime_stats()
            )
        return stats

    @property
    def stats_catalog(self) -> StatsCatalog:
        """The live cardinality/distinct-count catalog cost plans read."""
        return self._stats

    def set_estimate_hint(
        self,
        table: str,
        sign: int,
        local_rows: float | None = None,
        reduce_rows: float | None = None,
    ) -> None:
        """Seed the planner's feedback for one delta shape and force its
        next compile to use it (what the adaptive loop does on a
        misestimate; exposed so tests and benchmarks can plant a known
        misestimate deterministically)."""
        hints = self._planner.feedback.setdefault((table, sign), {})
        if local_rows is not None:
            hints["local_rows"] = float(local_rows)
        if reduce_rows is not None:
            hints["reduce_rows"] = float(reduce_rows)
        self._retire_plans(table, sign)

    def _retire_plans(self, table: str, sign: int) -> None:
        """Drop the cached pipeline for one shape, keeping it aside so
        the recompiled plan inherits its observed statistics."""
        key = (table, sign)
        plans = self._delta_plans.pop(key, None)
        if plans is not None:
            retired = self._retired_plans.get(key)
            if retired is not None:
                transfer_runtime_stats(retired, plans)
            self._retired_plans[key] = plans

    def _check_estimates(
        self,
        table: str,
        sign: int,
        plans: DeltaPlans,
        local_rows: int,
        reduce_rows: int,
        trace,
    ) -> None:
        """The adaptive feedback loop: compare the plan's stage
        estimates against this transaction's observed cardinalities;
        past the configured q-error ratio, record the observation and
        drop the cached pipeline so the *next* transaction recompiles
        against fresh statistics (this one finishes on the old plan —
        both are correct, only cost differs)."""
        estimates = plans.stage_estimates()
        worst = 1.0
        for estimated, actual in (
            (estimates["local"], local_rows),
            (estimates["reduce"], reduce_rows),
        ):
            error = q_error(estimated, actual)
            self.perf.observe(PLANNER_QERROR, error)
            worst = max(worst, error)
        if worst <= self._replan_ratio:
            return
        self._planner.feedback[(table, sign)] = {
            "local_rows": float(max(local_rows, 1)),
            "reduce_rows": float(max(reduce_rows, 1)),
        }
        self._retire_plans(table, sign)
        self.perf.count("replans")
        if self.events is not None:
            self.events.info(
                "planner.replan",
                ctx=None if trace is None else trace.context(),
                view=self.view.name,
                table=table,
                sign=sign,
                q_error=round(worst, 2),
            )
        if trace is not None:
            trace.instant(
                "replan",
                kind="planner",
                table=table,
                sign=sign,
                q_error=round(worst, 2),
            )

    def set_restriction(self, enabled: bool) -> None:
        """Plan future propagation joins with (default) or without the
        delta-driven semijoin restriction of the other auxiliary views —
        the ablation switch for measuring what restriction buys."""
        self._planner.restrict = enabled
        self._delta_plans.clear()

    def _process_delta(
        self,
        table: str,
        rows: list[tuple],
        sign: int,
        dirty: set[tuple],
        shared: dict | None = None,
        trace=None,
    ) -> None:
        """Reduce and propagate one table's (pre-validated) delta rows.

        The work runs through the plans compiled by
        :class:`~repro.plan.maintenance.MaintenancePlanner`; one
        execution context memoizes shared prefixes (the reduced delta
        feeds both the propagation join and the auxiliary fold), and the
        warehouse-supplied ``shared`` dict extends that memoization to
        the delta-only subplans of sibling maintainers.  When ``trace``
        is active, every phase and every executed plan node lands in its
        span tree.
        """
        info = self._tables[table]
        perf = self.perf
        plans = self.delta_plans(table, sign)
        ctx = ExecutionContext(
            providers=self._materializations,
            perf=perf,
            shared=shared,
            deltas={(table, sign): Relation(info.schema, rows, validate=False)},
            trace=trace,
        )
        with _phase_span(
            trace, "local-reduce", table=table, sign=sign
        ) as span, perf.timer("local-reduce"):
            locally = self.backend.run_plan(plans.local, ctx)
        if span is not None:
            span.rows_in, span.rows_out = len(rows), len(locally)
        perf.count("rows_locally_reduced_away", len(rows) - len(locally))
        with _phase_span(
            trace, "join-reduce", table=table, sign=sign
        ) as span, perf.timer("join-reduce"):
            reduced = self.backend.run_plan(plans.reduce, ctx)
            perf.count("join_reduce_probes", len(locally) * plans.n_reductions)
            perf.count("rows_join_reduced_away", len(locally) - len(reduced))
        if span is not None:
            span.rows_in, span.rows_out = len(locally), len(reduced)
        self._check_estimates(table, sign, plans, len(locally), len(reduced), trace)
        if not reduced:
            return
        perf.count("rows_propagated", len(reduced))
        if plans.propagate is not None:
            with _phase_span(
                trace, "aggregate-fold", table=table, sign=sign
            ) as span, perf.timer("aggregate-fold"):
                contributions = self.backend.run_plan(plans.propagate, ctx)
                for key, acc in contributions.items():
                    self._merge_group(key, acc, sign, dirty)
            if span is not None:
                span.rows_in, span.rows_out = len(reduced), len(contributions)
        if table not in self._eliminated:
            with _phase_span(
                trace, "aux-apply", table=table, sign=sign
            ) as span, perf.timer("aux-apply"):
                self._materializations[table].apply(reduced.rows, sign)
            if span is not None:
                span.rows_in = span.rows_out = len(reduced)

    def _merge_group(
        self, key: tuple, acc: GroupAccumulator, sign: int, dirty: set[tuple]
    ) -> None:
        self._save_group(key)
        state = self._groups.get(key)
        if sign > 0:
            if state is None:
                self._groups[key] = self._state_from_accumulator(acc)
                dirty.discard(key)
                return
            state.count += acc.multiplicity
            for index, value in acc.sums.items():
                state.sums[index] = state.sums.get(index, 0) + value
            # Aggregates over key-pinned tables are constant within the
            # group; only varying extrema need combining.
            for index, value in acc.extrema.items():
                if index in self._varying_items:
                    combiner = self.reconstructor.combiner(index)
                    state.values[index] = combiner(state.values[index], value)
            for index in acc.distincts:
                if index in self._varying_items:
                    dirty.add(key)
            return
        if state is None:
            raise SelfMaintenanceError(
                f"deletion touches unknown group {key!r} of {self.view.name}"
            )
        state.count -= acc.multiplicity
        if state.count == 0:
            del self._groups[key]
            dirty.discard(key)
            return
        if state.count < 0:
            raise SelfMaintenanceError(
                f"negative multiplicity in group {key!r} of {self.view.name}"
            )
        for index, value in acc.sums.items():
            state.sums[index] = state.sums.get(index, 0) - value
        for index, value in acc.extrema.items():
            if index in self._varying_items and value == state.values[index]:
                dirty.add(key)
        for index in acc.distincts:
            if index in self._varying_items:
                dirty.add(key)

    # ------------------------------------------------------------------
    # Checkpointing (restart without base-table access).
    # ------------------------------------------------------------------

    def export_state(self) -> dict:
        """A JSON-serializable snapshot of ``X`` and the maintained ``V``.

        Together with the (re-derivable) view definition this is all the
        warehouse needs to resume after a restart — crucially *without*
        reading the sealed sources.
        """
        return {
            "view": self.view.name,
            "view_sql": self.view.to_sql(),
            "append_only": self.append_only,
            "auxiliary": {
                table: [list(row) for row in materialization.relation()]
                for table, materialization in self._materializations.items()
            },
            "groups": [
                {
                    "key": list(key),
                    "count": state.count,
                    "sums": {str(i): v for i, v in state.sums.items()},
                    "values": {str(i): v for i, v in state.values.items()},
                }
                for key, state in self._groups.items()
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        if state.get("view") != self.view.name:
            raise SelfMaintenanceError(
                f"checkpoint is for view {state.get('view')!r}, "
                f"not {self.view.name!r}"
            )
        if bool(state.get("append_only")) != self.append_only:
            raise SelfMaintenanceError(
                "checkpoint append-only mode does not match this maintainer"
            )
        recorded = set(state.get("auxiliary", {}))
        expected = set(self._materializations)
        if recorded != expected:
            raise SelfMaintenanceError(
                f"checkpoint auxiliary views {sorted(recorded)} do not "
                f"match the derivation {sorted(expected)}"
            )
        for table, rows in state["auxiliary"].items():
            materialization = self._materializations[table]
            materialization.load(
                Relation(
                    materialization.schema,
                    [tuple(row) for row in rows],
                )
            )
        self._groups = {}
        for entry in state["groups"]:
            key = tuple(entry["key"])
            self._groups[key] = GroupState(
                count=entry["count"],
                sums={int(i): v for i, v in entry["sums"].items()},
                values={int(i): v for i, v in entry["values"].items()},
            )

    def _recompute_groups(self, dirty: set[tuple]) -> None:
        """Refresh non-CSMAS aggregates of dirty groups from X (never from
        base tables) — the paper's recomputation-from-auxiliary-views."""
        live = {key for key in dirty if key in self._groups}
        if not live:
            return
        accumulators = self.reconstructor.accumulate(
            self._current_relations(), frozenset(live)
        )
        for key in live:
            acc = accumulators.get(key)
            if acc is None or acc.multiplicity == 0:
                raise SelfMaintenanceError(
                    f"group {key!r} survives in V but not in X"
                )
            refreshed = self._state_from_accumulator(acc)
            state = self._groups[key]
            if state.count != refreshed.count:
                raise SelfMaintenanceError(
                    f"group {key!r}: maintained count {state.count} disagrees "
                    f"with auxiliary views ({refreshed.count})"
                )
            self._save_group(key)
            state.values = refreshed.values
            state.sums = refreshed.sums
