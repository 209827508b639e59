"""Columnar execution backend: typed column stores + fused batch kernels.

Where :class:`~repro.backends.base.MemoryBackend` interprets physical
plans node by node over row-tuple relations, this backend stores every
auxiliary materialization as a set of typed columns (see
:class:`~repro.backends.kernels.ColumnStore`) with two kinds of hash
indexes mapping values to *row-id vectors*:

* a row-multiplicity index (``row tuple -> [rids]``) on projection
  stores, so bag deletes pick a victim rid in O(1);
* per-column value indexes (``value -> {rids}``) built lazily on first
  probe and maintained incrementally from then on — they serve join
  probes and ``key_values`` (the join-reduction key sets).

Delta plans compile to *fused batch kernels* executed once per delta
batch instead of once per row per node:

* the **local** stage runs the delta scan plus selection vectors;
* the **reduce** stage runs the key-probe semijoin chain as successive
  key-vector filters;
* the **propagate** stage walks the left-deep join tree once at compile
  time, then per batch probes the stores' rid indexes (no per-
  transaction hash builds — the classic win over build-and-probe on a
  3000-row dimension for a 16-row delta) and folds matches straight
  into group accumulators via the reconstructor's
  :class:`~repro.core.rewrite.SymbolicProgram`.

``NeighborRestrictNode``\\ s are deliberately skipped when fusing: every
restriction they encode reappears as an equijoin condition on the same
pair, and probing the maintained rid index is the restriction.

Rollback integrates with the shared :class:`~repro.engine.undolog.UndoLog`
at batch granularity: each ``apply`` records *one* closure that
restores the touched rows/groups (row- and key-identity, not rid
identity — state equality is the row multiset, and freed rids are
recycled by the free list anyway), so the undo cost of a transaction
follows the delta, never the stored detail.
"""

from __future__ import annotations

from repro.backends.base import Backend
from repro.backends.kernels import ColumnStore, gather, selection_vector
from repro.core.maintenance import AuxMaterialization, SelfMaintenanceError
from repro.core.rewrite import AggregateCategory, GroupAccumulator
from repro.engine.compilecache import compiled_predicate
from repro.engine.relation import Relation
from repro.engine.rowindex import make_tuple_extractor
from repro.engine.schema import Schema
from repro.engine.undolog import UndoLog
from repro.plan.executor import ExecutionContext
from repro.plan.physical import (
    AccumulateNode,
    AuxScanNode,
    DeltaScanNode,
    FilterNode,
    HashJoinNode,
    KeyProbeSemiJoinNode,
    NeighborRestrictNode,
    run_stage_root,
)


#: Distinct sentinel for decode-map cache misses and probe misses
#: (``None`` is a legitimate stored value).
_MISS = object()


class _ColumnarStore(AuxMaterialization):
    """Shared column-store machinery of both materialization kinds."""

    def __init__(self, aux):
        super().__init__(aux)
        self.store = ColumnStore(self.schema)
        #: column position -> {value -> set(rids)}; built on first probe,
        #: maintained incrementally afterwards.
        self._rid_indexes: dict[int, dict] = {}
        #: (key position, value position) -> {key -> value} | None — the
        #: dictionary-encoded join columns the fused propagate kernel
        #: probes (None caches "key column is not unique").  Dropped on
        #: any mutation, rebuilt lazily; dimension stores mutate rarely,
        #: so the maps persist across whole delta streams.
        self._decode_maps: dict[tuple[int, int], dict | None] = {}
        self._cache: Relation | None = None
        self._undo: UndoLog | None = None

    def decode_map(self, key_position: int, value_position: int):
        """``{key value -> value-column value}`` over live rows, or
        ``None`` when the key column is not unique (then a key may match
        several rows and a plain dict would drop multiplicity)."""
        cache_key = (key_position, value_position)
        cached = self._decode_maps.get(cache_key, _MISS)
        if cached is not _MISS:
            return cached
        store = self.store
        key_column = store.columns[key_position]
        value_column = store.columns[value_position]
        mapping: dict | None = {}
        for rid, bit in enumerate(store.live):
            if bit:
                key = key_column[rid]
                if key in mapping:
                    mapping = None
                    break
                mapping[key] = value_column[rid]
        self._decode_maps[cache_key] = mapping
        return mapping

    # -- probing -------------------------------------------------------

    def rid_index(self, position: int) -> dict:
        """The maintained ``value -> {rids}`` index on one column."""
        index = self._rid_indexes.get(position)
        if index is None:
            index = self._rid_indexes[position] = {}
            column = self.store.columns[position]
            for rid, bit in enumerate(self.store.live):
                if bit:
                    value = column[rid]
                    bucket = index.get(value)
                    if bucket is None:
                        index[value] = {rid}
                    else:
                        bucket.add(rid)
        return index

    def _index_rid(self, row: tuple, rid: int) -> None:
        for position, index in self._rid_indexes.items():
            value = row[position]
            bucket = index.get(value)
            if bucket is None:
                index[value] = {rid}
            else:
                bucket.add(rid)

    def _unindex_rid(self, row: tuple, rid: int) -> None:
        for position, index in self._rid_indexes.items():
            value = row[position]
            bucket = index.get(value)
            if bucket is not None:
                bucket.discard(rid)
                if not bucket:
                    del index[value]

    def key_values(self, column: str):
        return self.rid_index(self.schema.index_of(column)).keys()

    def rows_matching(self, column: str, values: set) -> list[tuple]:
        index = self.rid_index(self.schema.index_of(column))
        store = self.store
        rows: list[tuple] = []
        for value in values:
            rids = index.get(value)
            if rids:
                rows.extend(store.rows(rids))
        return rows

    # -- shared state management --------------------------------------

    def relation(self) -> Relation:
        if self._cache is None:
            self._cache = Relation(
                self.schema, self.store.all_rows(), validate=False
            )
        return self._cache

    def _touch(self) -> None:
        """Invalidate row-level derived state before a mutation."""
        self._cache = None
        if self._decode_maps:
            self._decode_maps.clear()

    def _drop_derived_state(self) -> None:
        self._cache = None
        self._rid_indexes.clear()
        if self._decode_maps:
            self._decode_maps.clear()

    def end_undo(self) -> None:
        self._undo = None

    def __len__(self) -> int:
        return len(self.store)


class ColumnarProjectionStore(_ColumnarStore):
    """A PSJ auxiliary view as typed columns with bag semantics.

    Every physical rid holds one row *occurrence* — duplicates occupy
    separate rids — so rid enumeration carries multiplicity naturally
    and the value indexes return one rid per occurrence, exactly like
    the row engine's :class:`~repro.engine.rowindex.RowIndex`.
    """

    def __init__(self, aux):
        super().__init__(aux)
        self._project = make_tuple_extractor(
            tuple(aux.base_schema.index_of(name) for name in aux.plan.pinned)
        )
        #: row tuple -> [rids] — the multiplicity index deletes pop from.
        self._row_rids: dict[tuple, list[int]] = {}

    def load(self, relation: Relation) -> None:
        if relation.schema != self.schema:
            raise SelfMaintenanceError(
                f"loaded relation does not match {self.aux.name} schema"
            )
        self.store = ColumnStore(self.schema)
        self._row_rids = {}
        self._drop_derived_state()
        for row in relation.rows:
            self._insert_row(row)

    def _insert_row(self, row: tuple) -> None:
        rid = self.store.append(row)
        rids = self._row_rids.get(row)
        if rids is None:
            self._row_rids[row] = [rid]
        else:
            rids.append(rid)
        if self._rid_indexes:
            self._index_rid(row, rid)

    def _delete_row(self, row: tuple) -> None:
        rids = self._row_rids[row]
        rid = rids.pop()
        if not rids:
            del self._row_rids[row]
        self.store.release(rid)
        if self._rid_indexes:
            self._unindex_rid(row, rid)

    def apply(self, base_rows: list[tuple], sign: int) -> None:
        projected = list(map(self._project, base_rows))
        if not projected:
            return
        if sign > 0:
            self._touch()
            store = self.store
            n_free = len(store.free)
            if n_free:
                # Recycle every parked slot first, then bulk-append.
                bulk = projected[n_free:]
                for row in projected[:n_free]:
                    self._insert_row(row)
            else:
                bulk = projected
            if bulk:
                # Appending past the high-water mark assigns contiguous
                # rids, so the columns grow by one C-level extend each
                # and the per-row work is only the multiplicity index.
                for position, column in enumerate(store.columns):
                    column.extend([row[position] for row in bulk])
                rid = len(store.live)
                store.live.extend(b"\x01" * len(bulk))
                row_rids = self._row_rids
                for row in bulk:
                    bucket = row_rids.get(row)
                    if bucket is None:
                        row_rids[row] = [rid]
                    else:
                        bucket.append(rid)
                    rid += 1
                rid_indexes = self._rid_indexes
                if rid_indexes:
                    base_rid = rid - len(bulk)
                    for position, index in rid_indexes.items():
                        rid = base_rid
                        bucket_of = index.get
                        for row in bulk:
                            value = row[position]
                            bucket = bucket_of(value)
                            if bucket is None:
                                index[value] = {rid}
                            else:
                                bucket.add(rid)
                            rid += 1
            if self._undo is not None:
                self._undo.record(
                    lambda rows=projected: self._unapply_insert(rows),
                    rows=len(projected),
                )
        else:
            # All-or-nothing per batch, like Relation.delete_all: verify
            # every occurrence exists before mutating anything.
            needed: dict[tuple, int] = {}
            for row in projected:
                needed[row] = needed.get(row, 0) + 1
            missing = {
                row: n - len(self._row_rids.get(row, ()))
                for row, n in needed.items()
                if len(self._row_rids.get(row, ())) < n
            }
            if missing:
                raise SelfMaintenanceError(
                    f"{self.aux.name}: cannot delete absent rows {missing!r}"
                )
            self._touch()
            for row in projected:
                self._delete_row(row)
            if self._undo is not None:
                self._undo.record(
                    lambda rows=projected: self._unapply_delete(rows),
                    rows=len(projected),
                )

    def _unapply_insert(self, rows: list[tuple]) -> None:
        self._touch()
        for row in reversed(rows):
            self._delete_row(row)

    def _unapply_delete(self, rows: list[tuple]) -> None:
        self._touch()
        for row in reversed(rows):
            self._insert_row(row)

    def begin_undo(self, log: UndoLog) -> None:
        self._undo = log


class ColumnarCompressedStore(_ColumnarStore):
    """A duplicate-compressed auxiliary view over typed columns.

    One rid per live group; pinned key columns plus running totals
    (folded sums, folded extrema, COUNT(*)) updated *in place*.  The
    semantics — group creation/vanishing, negative-count detection,
    append-only folded MIN/MAX — mirror
    :class:`~repro.core.maintenance.CompressedMaterialization` exactly;
    undo snapshots totals per first-touched key and restores by key
    identity (a vanished group re-appears at a fresh, recycled rid).
    """

    def __init__(self, aux):
        super().__init__(aux)
        plan = aux.plan
        base = aux.base_schema
        self._pin_indexes = [base.index_of(name) for name in plan.pinned]
        self._sum_indexes = [base.index_of(name) for name in plan.folded_sums]
        self._min_indexes = [base.index_of(name) for name in plan.folded_mins]
        self._max_indexes = [base.index_of(name) for name in plan.folded_maxs]
        self._n_pins = len(plan.pinned)
        n_totals = (
            len(self._sum_indexes)
            + len(self._min_indexes)
            + len(self._max_indexes)
            + 1
        )
        #: schema positions of the totals columns (count last).
        self._total_positions = tuple(
            range(self._n_pins, self._n_pins + n_totals)
        )
        self._count_position = self._n_pins + n_totals - 1
        self._key_rids: dict[tuple, int] = {}
        self._undo_saved: set[tuple] = set()
        self._pin_extract = make_tuple_extractor(tuple(self._pin_indexes))
        self._min_extract = make_tuple_extractor(tuple(self._min_indexes))
        self._max_extract = make_tuple_extractor(tuple(self._max_indexes))
        self._sum_zeros = (0,) * len(self._sum_indexes)
        self._bind_columns()
        self._fast_apply = self._compile_apply()

    def _bind_columns(self) -> None:
        """Resolve the totals columns of the *current* store to column
        objects once; ``apply`` then updates them with no per-row column
        lookups.  Must be re-run whenever :attr:`store` is replaced
        (only :meth:`load` does that — append/release mutate in place)."""
        columns = self.store.columns
        n_pins = self._n_pins
        self._sum_columns = tuple(
            (columns[n_pins + slot], index)
            for slot, index in enumerate(self._sum_indexes)
        )
        position = n_pins + len(self._sum_indexes)
        self._min_columns = tuple(
            (columns[position + slot], index)
            for slot, index in enumerate(self._min_indexes)
        )
        position += len(self._min_indexes)
        self._max_columns = tuple(
            (columns[position + slot], index)
            for slot, index in enumerate(self._max_indexes)
        )
        self._count_column = columns[self._count_position]
        self._totals_columns = tuple(
            columns[p] for p in self._total_positions
        )

    def load(self, relation: Relation) -> None:
        if relation.schema != self.schema:
            raise SelfMaintenanceError(
                f"loaded relation does not match {self.aux.name} schema"
            )
        self.store = ColumnStore(self.schema)
        self._bind_columns()
        self._key_rids = {}
        self._drop_derived_state()
        width = self._n_pins
        for row in relation:
            self._key_rids[row[:width]] = self.store.append(row)

    def _compile_apply(self):
        """Compile the apply loop for this summary's exact shape.

        Folded MIN/MAX shapes keep the generic loop (their append-only
        extremum merge is branchy); everything else — the dominant
        SUM/COUNT summaries — gets straight-line code with the key
        tuple, undo snapshot, fresh-group append, recycled-slot reuse,
        totals update, and group-release inlined per column, so a row
        costs a dict probe plus a few subscripts.  Mutable state (the
        store, the key->rid map, the undo log) is fetched from ``self``
        at call time, so :meth:`load` never recompiles.
        """
        if self._min_indexes or self._max_indexes:
            return None
        columns = self.store.columns
        pins = self._pin_indexes
        n_pins = self._n_pins
        totals = self._total_positions
        count_position = self._count_position
        sum_positions = list(
            zip(range(n_pins, n_pins + len(self._sum_indexes)),
                self._sum_indexes)
        )
        used = list(range(len(columns)))
        key_expr = "(" + "".join(f"row[{i}], " for i in pins) + ")"
        snap_expr = "(" + "".join(f"c{p}[rid], " for p in totals) + ")"
        fresh_expr = (
            "(" + "".join(f"row[{i}], " for i in pins)
            + "0, " * len(totals) + ")"
        )
        row_expr = "(" + "".join(f"c{p}[rid], " for p in used) + ")"
        body = [
            "            if rid is None:",
            "                if sign < 0:",
            "                    raise SelfMaintenanceError(_ABSENT + repr(key))",
            "                if free:",
            "                    rid = free_pop()",
        ]
        body += [
            f"                    c{slot}[rid] = row[{i}]"
            for slot, i in enumerate(pins)
        ] + [f"                    c{p}[rid] = 0" for p in totals]
        body += [
            "                    live[rid] = 1",
            "                else:",
            "                    rid = len(live)",
        ]
        body += [
            f"                    a{slot}(row[{i}])"
            for slot, i in enumerate(pins)
        ] + [f"                    a{p}(0)" for p in totals]
        body += [
            "                    live_append(1)",
            "                key_rids[key] = rid",
            "                if rid_indexes:",
            f"                    index_rid({fresh_expr}, rid)",
        ]
        body += [
            f"            c{p}[rid] += sign * row[{i}]"
            for p, i in sum_positions
        ]
        body += [
            f"            count = c{count_position}[rid] + sign",
            "            if count == 0:",
            "                del key_rids[key]",
            "                if rid_indexes:",
            f"                    unindex_rid({row_expr}, rid)",
            "                live[rid] = 0",
            "                free_append(rid)",
        ]
        body += [
            f"                c{p}[rid] = None"
            for p in used
            if type(columns[p]) is list
        ]
        body += [
            "            elif count < 0:",
            "                raise SelfMaintenanceError(_NEGATIVE + repr(key))",
            "            else:",
            f"                c{count_position}[rid] = count",
        ]
        lines = [
            "def _apply(self, base_rows, sign):",
            "    store = self.store",
            "    columns = store.columns",
        ]
        lines += [f"    c{p} = columns[{p}]" for p in used]
        lines += [f"    a{p} = c{p}.append" for p in used]
        lines += [
            "    live = store.live",
            "    live_append = live.append",
            "    free = store.free",
            "    free_pop = free.pop",
            "    free_append = free.append",
            "    key_rids = self._key_rids",
            "    get = key_rids.get",
            "    rid_indexes = self._rid_indexes",
            "    index_rid = self._index_rid",
            "    unindex_rid = self._unindex_rid",
            "    undo = self._undo",
            "    if undo is not None:",
            "        touched = []",
            "        undo.record(",
            "            lambda entries=touched: self._restore_groups(entries),",
            "            rows=len(base_rows),",
            "        )",
            "        touched_append = touched.append",
            "        undo_saved = self._undo_saved",
            "        saved_add = undo_saved.add",
            "        for row in base_rows:",
            f"            key = {key_expr}",
            "            rid = get(key)",
            "            if key not in undo_saved:",
            "                saved_add(key)",
            "                touched_append(",
            f"                    (key, None if rid is None else {snap_expr})",
            "                )",
        ]
        lines += body
        lines += [
            "    else:",
            "        for row in base_rows:",
            f"            key = {key_expr}",
            "            rid = get(key)",
        ]
        lines += body
        namespace = {
            "SelfMaintenanceError": SelfMaintenanceError,
            "_ABSENT": f"{self.aux.name}: deletion from absent group ",
            "_NEGATIVE": f"{self.aux.name}: negative count in group ",
        }
        exec(compile("\n".join(lines), "<columnar-apply>", "exec"), namespace)
        return namespace["_apply"]

    def apply(self, base_rows: list[tuple], sign: int) -> None:
        if not base_rows:
            return
        if sign < 0 and (self._min_indexes or self._max_indexes):
            raise SelfMaintenanceError(
                f"{self.aux.name} holds folded MIN/MAX (append-only mode) "
                "and cannot absorb deletions"
            )
        self._touch()
        fast_apply = self._fast_apply
        if fast_apply is not None:
            fast_apply(self, base_rows, sign)
            return
        store = self.store
        key_rids = self._key_rids
        pin_extract = self._pin_extract
        sum_columns = self._sum_columns
        min_columns = self._min_columns
        max_columns = self._max_columns
        count_column = self._count_column
        totals_columns = self._totals_columns
        rid_indexes = self._rid_indexes
        undo = self._undo
        touched: list[tuple] | None = None
        undo_saved = self._undo_saved
        if undo is not None:
            touched = []
            undo.record(
                lambda entries=touched: self._restore_groups(entries),
                rows=len(base_rows),
            )
        for row in base_rows:
            key = pin_extract(row)
            rid = key_rids.get(key)
            if touched is not None and key not in undo_saved:
                undo_saved.add(key)
                snapshot = (
                    None
                    if rid is None
                    else tuple([c[rid] for c in totals_columns])
                )
                touched.append((key, snapshot))
            if rid is None:
                if sign < 0:
                    raise SelfMaintenanceError(
                        f"{self.aux.name}: deletion from absent group {key!r}"
                    )
                fresh = (
                    key
                    + self._sum_zeros
                    + self._min_extract(row)
                    + self._max_extract(row)
                    + (0,)
                )
                rid = key_rids[key] = store.append(fresh)
                if rid_indexes:
                    self._index_rid(fresh, rid)
            for column, index in sum_columns:
                column[rid] += sign * row[index]
            for column, index in min_columns:
                value = row[index]
                if value < column[rid]:
                    column[rid] = value
            for column, index in max_columns:
                value = row[index]
                if value > column[rid]:
                    column[rid] = value
            count = count_column[rid] + sign
            if count == 0:
                del key_rids[key]
                if rid_indexes:
                    self._unindex_rid(store.row(rid), rid)
                store.release(rid)
            elif count < 0:
                raise SelfMaintenanceError(
                    f"{self.aux.name}: negative count in group {key!r}"
                )
            else:
                count_column[rid] = count

    def begin_undo(self, log: UndoLog) -> None:
        self._undo = log
        self._undo_saved = set()
        # Recorded first, so LIFO runs it after every group restore.
        log.record(self._drop_derived_state)

    def end_undo(self) -> None:
        self._undo = None
        self._undo_saved = set()

    def _restore_groups(self, entries: list[tuple]) -> None:
        """Inverse of one apply batch: per first-touched key, re-install
        the pre-transaction totals (or remove a group that did not
        exist).  Rid indexes are derived state — dropped wholesale and
        rebuilt lazily, exactly like the row engine's rollback."""
        self._drop_derived_state()
        store = self.store
        key_rids = self._key_rids
        for key, snapshot in reversed(entries):
            rid = key_rids.get(key)
            if snapshot is None:
                if rid is not None:
                    del key_rids[key]
                    store.release(rid)
            elif rid is not None:
                columns = store.columns
                for position, value in zip(self._total_positions, snapshot):
                    columns[position][rid] = value
            else:
                key_rids[key] = store.append(key + snapshot)


# ----------------------------------------------------------------------
# Fused stage kernels.
# ----------------------------------------------------------------------


class _PropagateStep:
    """One resolved join step of a fused propagate kernel."""

    __slots__ = ("table", "probe_src", "probe_col", "right_col", "extras")

    def __init__(self, table, probe_src, probe_col, right_col, extras):
        self.table = table
        self.probe_src = probe_src
        self.probe_col = probe_col
        self.right_col = right_col
        #: extra equijoin pairs: ((left_src, left_col, right_col), ...)
        self.extras = extras


class _PropagatePlan:
    """Join-step schedule + fold accessors for one input schema.

    The fold reads *accessors* — ``(source, column)`` pairs where source
    0 is the delta-side row and source ``k`` is the k-th joined column
    store — so contributions stream straight out of the columns into
    the group accumulators without ever materializing joined tuples.
    """

    __slots__ = (
        "steps", "key_accessors", "count_accessor", "sum_accessors",
        "raw_accessors", "fast_specs", "fast_fold",
    )

    def __init__(self, steps, key_accessors, count_accessor,
                 sum_accessors, raw_accessors, fast_specs, fast_fold):
        self.steps = steps
        self.key_accessors = key_accessors
        self.count_accessor = count_accessor
        #: ``(slot, src, col, scale_by_multiplicity)`` per SUM/AVG item.
        self.sum_accessors = sum_accessors
        #: ``(slot, is_extremum, src, col, combine)`` per raw-value item.
        self.raw_accessors = raw_accessors
        #: ``(src, value_col)`` decode maps the compiled fold probes, in
        #: join order (None fast_fold means the shape is not eligible).
        self.fast_specs = fast_specs
        #: ``fold(rows, groups, maps) -> folded`` compiled for this exact
        #: shape, or None to use the generic accessor fold.
        self.fast_fold = fast_fold


def _compile_fast_fold(steps, key_accessors, count_accessor, sum_accessors,
                       raw_accessors):
    """Compile the propagate fold for one plan shape into straight-line
    code over dictionary-encoded join columns.

    Eligible shapes: every join step is a single-pair equijoin probed
    from the delta row, and the program holds only COUNT/SUM/AVG items
    (extrema and distincts keep the generic accessor fold).  Each joined
    source becomes a ``{join key -> needed column value}`` decode map
    (unique-key proof included: a non-unique key disables the map, and
    the kernel falls back at run time), so the per-row work is a few
    dict probes with zero interpretive dispatch — the same move
    :mod:`repro.engine.compilecache` makes for predicates.

    Returns ``(specs, fold)`` where ``specs`` lists the ``(src,
    value_col)`` decode maps to fetch per batch and ``fold(rows, groups,
    maps)`` folds a batch, or ``(None, None)`` when ineligible.
    """
    if raw_accessors:
        return None, None
    for step in steps:
        if step.right_col is None or step.extras or step.probe_src != 0:
            return None, None
    spec_index: dict[tuple[int, int], int] = {}

    def value_expr(src, col):
        if src == 0:
            return f"row[{col}]"
        i = spec_index.setdefault((src, col), len(spec_index))
        return f"v{i}"

    key_exprs = [value_expr(src, col) for src, col in key_accessors]
    mult_expr = (
        None if count_accessor is None else value_expr(*count_accessor)
    )
    sum_exprs = [
        (slot, value_expr(src, col), scaled)
        for slot, src, col, scaled in sum_accessors
    ]
    # Sources no accessor reads still gate the join: their identity map
    # proves key uniqueness (multiplicity one) and filters non-matches.
    read_srcs = {src for src, __ in spec_index}
    for src in range(1, len(steps) + 1):
        if src not in read_srcs:
            spec = (src, steps[src - 1].right_col)
            spec_index.setdefault(spec, len(spec_index))
    specs = sorted(spec_index, key=spec_index.get)
    sum_slots = [slot for slot, __, __ in sum_exprs]

    lines = ["def _fold(rows, groups, maps):"]
    for i in range(len(specs)):
        lines.append(f"    g{i} = maps[{i}].get")
    lines.append("    counts = {}")
    lines.append("    counts_get = counts.get")
    for slot in sum_slots:
        lines.append(f"    s{slot} = {{}}")
        lines.append(f"    s{slot}_get = s{slot}.get")
    lines.append("    folded = 0")
    lines.append("    for row in rows:")
    # Probe in join order so a non-matching row exits as early as the
    # generic binding loop would.
    for i, (src, __) in sorted(enumerate(specs), key=lambda e: e[1][0]):
        probe_col = steps[src - 1].probe_col
        lines.append(f"        v{i} = g{i}(row[{probe_col}], _MISS)")
        lines.append(f"        if v{i} is _MISS:")
        lines.append("            continue")
    if len(key_exprs) == 1:
        lines.append(f"        key = ({key_exprs[0]},)")
    else:
        lines.append(f"        key = ({', '.join(key_exprs)})")
    lines.append("        folded += 1")
    if mult_expr is None:
        lines.append("        counts[key] = counts_get(key, 0) + 1")
    else:
        lines.append(f"        m = {mult_expr}")
        lines.append("        counts[key] = counts_get(key, 0) + m")
    for slot, expr, scaled in sum_exprs:
        term = f"({expr}) * m" if scaled and mult_expr is not None else expr
        lines.append(f"        s{slot}[key] = s{slot}_get(key, 0) + {term}")
    lines.append("    for key, count in counts.items():")
    lines.append("        acc = GroupAccumulator(count)")
    for slot in sum_slots:
        lines.append(f"        acc.sums[{slot}] = s{slot}[key]")
    lines.append("        groups[key] = acc")
    lines.append("    return folded")
    namespace = {"_MISS": _MISS, "GroupAccumulator": GroupAccumulator}
    exec(compile("\n".join(lines), "<columnar-fold>", "exec"), namespace)
    return tuple(specs), namespace["_fold"]


class ColumnarBackend(Backend):
    """Column-store materializations and fused per-batch plan kernels."""

    name = "columnar"

    def __init__(self):
        #: id(node) -> (node, kernel | None); the node reference keeps
        #: the id stable, None caches an unfusable shape.
        self._kernels: dict[int, tuple] = {}

    def make_materialization(self, aux, namespace="", **_ignored):
        if aux.is_compressed:
            return ColumnarCompressedStore(aux)
        return ColumnarProjectionStore(aux)

    def describe(self, namespace: str = "") -> str | None:
        return (
            "columnar column stores (typed columns, liveness mask, free-list "
            "rid recycling) with value->rid hash indexes; delta stages run "
            "as fused batch kernels (selection vectors, rid-index probe "
            "joins, symbolic-program aggregate fold)"
        )

    # -- plan dispatch -------------------------------------------------

    def run_plan(self, node, ctx: ExecutionContext):
        kind = type(node)
        if kind is AccumulateNode:
            kernel = self._kernel(node, self._compile_propagate)
        elif kind is KeyProbeSemiJoinNode:
            kernel = self._kernel(node, self._compile_reduce)
        elif kind is DeltaScanNode or kind is FilterNode:
            kernel = self._kernel(node, self._compile_local)
        else:
            kernel = None
        if kernel is None:
            return node.run(ctx)
        return run_stage_root(node, ctx, kernel)

    def _kernel(self, node, compile_fn):
        entry = self._kernels.get(id(node))
        if entry is None or entry[0] is not node:
            if len(self._kernels) > 1024:  # bound stale ids, rarely hit
                self._kernels.clear()
            entry = self._kernels[id(node)] = (node, compile_fn(node))
        return entry[1]

    # -- local stage: delta scan + selection vectors -------------------

    def _compile_local(self, node):
        conditions = []
        current = node
        while type(current) is FilterNode:
            conditions.append(current.condition)
            current = current.children[0]
        if type(current) is not DeltaScanNode:
            return None
        table, sign = current.table, current.sign
        conditions.reverse()  # apply innermost (scan-adjacent) first

        def kernel(_node, ctx, _table=table, _sign=sign,
                   _conditions=tuple(conditions)):
            delta = ctx.delta(_table, _sign)
            rows = delta.rows
            ctx.count("kernel_batches")
            ctx.count("kernel_rows", len(rows))
            schema = delta.schema
            for condition in _conditions:
                if not rows:
                    break
                predicate = compiled_predicate(condition, schema)
                selection = selection_vector(rows, predicate)
                if len(selection) != len(rows):
                    rows = gather(rows, selection)
            if rows is delta.rows:
                return delta
            return Relation(schema, rows, validate=False)

        return kernel

    # -- reduce stage: key-vector semijoin chain -----------------------

    def _compile_reduce(self, node):
        probes = []
        current = node
        while type(current) is KeyProbeSemiJoinNode:
            probes.append((current.fk_index, current.dep_table, current.dep_key))
            current = current.children[0]
        probes.reverse()  # innermost reduction first, as planned
        leaf = current

        positions: dict[str, int] = {}

        def kernel(_node, ctx, _probes=tuple(probes), _leaf=leaf):
            source = self.run_plan(_leaf, ctx)
            rows = source.rows
            ctx.count("kernel_batches")
            ctx.count("kernel_rows", len(rows))
            key_sets = []
            for fk, dep_table, dep_key in _probes:
                provider = ctx.provider(dep_table)
                if isinstance(provider, _ColumnarStore):
                    # Probe the value->rid index dict directly: its keys
                    # are exactly the live key values, and the schema
                    # position lookup is paid once per plan, not per txn.
                    position = positions.get(dep_table)
                    if position is None:
                        position = positions[dep_table] = (
                            provider.schema.index_of(dep_key)
                        )
                    keys = provider.rid_index(position)
                else:
                    keys = provider.key_values(dep_key)
                key_sets.append((fk, keys))
            if rows:
                if len(key_sets) == 1:
                    fk, keys = key_sets[0]
                    rows = [row for row in rows if row[fk] in keys]
                elif len(key_sets) == 2:
                    (fk_a, keys_a), (fk_b, keys_b) = key_sets
                    rows = [
                        row
                        for row in rows
                        if row[fk_a] in keys_a and row[fk_b] in keys_b
                    ]
                else:
                    for fk, keys in key_sets:
                        if not rows:
                            break
                        rows = [row for row in rows if row[fk] in keys]
            if len(rows) == len(source.rows):
                return source
            return Relation(source.schema, rows, validate=False)

        return kernel

    # -- propagate stage: rid-index probe join + aggregate fold --------

    def _compile_propagate(self, node):
        steps: list[tuple[str, tuple]] = []
        current = node.children[0]
        while type(current) is HashJoinNode:
            right = current.children[1]
            if type(right) is AuxScanNode or type(right) is NeighborRestrictNode:
                steps.append((right.table, tuple(current.pairs)))
            else:
                return None
            current = current.children[0]
        steps.reverse()  # first join first
        leaf = current
        reconstructor = node.reconstructor
        plans: dict[Schema, _PropagatePlan] = {}

        def kernel(_node, ctx, _steps=tuple(steps), _leaf=leaf):
            source = self.run_plan(_leaf, ctx)
            providers = [ctx.provider(table) for table, __ in _steps]
            if any(not isinstance(p, _ColumnarStore) for p in providers):
                # Foreign materializations (shouldn't happen under this
                # backend): interpret the join tree instead of fusing.
                return node.execute(ctx, [node.children[0].run(ctx)])
            plan = plans.get(source.schema)
            if plan is None:
                plan = plans[source.schema] = self._resolve_propagate(
                    source.schema, _steps, providers, reconstructor
                )
            rows = source.rows
            ctx.count("kernel_batches")
            groups: dict = {}
            if not rows:
                ctx.count("kernel_rows", 0)
                return groups
            if plan.fast_fold is not None:
                maps = []
                plan_steps = plan.steps
                for src, value_col in plan.fast_specs:
                    decode = providers[src - 1].decode_map(
                        plan_steps[src - 1].right_col, value_col
                    )
                    if decode is None:
                        break  # non-unique join key: generic fold below
                    maps.append(decode)
                else:
                    folded = plan.fast_fold(rows, groups, maps)
                    ctx.count("index_probes", len(rows) * len(plan_steps))
                    ctx.count("kernel_rows", folded)
                    return groups
            stores = [provider.store for provider in providers]
            bindings = [(row,) for row in rows]
            probes = 0
            for src, (step, provider) in enumerate(
                zip(plan.steps, providers), start=1
            ):
                if not bindings:
                    break
                extras = step.extras
                next_bindings = []
                if step.right_col is None:
                    # Cross step: every live rid joins (degenerate and
                    # rare — kept for completeness).
                    rids = list(stores[src - 1].live_rids())
                    for binding in bindings:
                        for rid in rids:
                            next_bindings.append(binding + (rid,))
                    bindings = next_bindings
                    continue
                index = provider.rid_index(step.right_col)
                probe_src, probe_col = step.probe_src, step.probe_col
                probe_column = (
                    None
                    if probe_src == 0
                    else stores[probe_src - 1].columns[probe_col]
                )
                index_get = index.get
                append = next_bindings.append
                probes += len(bindings)
                if probe_column is None and not extras:
                    for binding in bindings:
                        rids = index_get(binding[0][probe_col])
                        if rids:
                            for rid in rids:
                                append(binding + (rid,))
                else:
                    for binding in bindings:
                        if probe_column is None:
                            value = binding[0][probe_col]
                        else:
                            value = probe_column[binding[probe_src]]
                        rids = index_get(value)
                        if not rids:
                            continue
                        if extras:
                            for rid in rids:
                                if self._extras_match(
                                    binding, rid, extras, stores, src - 1
                                ):
                                    append(binding + (rid,))
                        else:
                            for rid in rids:
                                append(binding + (rid,))
                bindings = next_bindings
            if probes:
                ctx.count("index_probes", probes)
            if not bindings:
                ctx.count("kernel_rows", 0)
                return groups
            # Accessor-based fold: aggregate contributions stream straight
            # out of the bound columns — joined tuples never materialize.
            columns_by_src = [None]
            for store in stores:
                columns_by_src.append(store.columns)
            key_accessors = plan.key_accessors
            count_accessor = plan.count_accessor
            sum_accessors = plan.sum_accessors
            raw_accessors = plan.raw_accessors
            groups_get = groups.get
            for binding in bindings:
                row0 = binding[0]
                key = tuple(
                    [
                        row0[col]
                        if src == 0
                        else columns_by_src[src][col][binding[src]]
                        for src, col in key_accessors
                    ]
                )
                acc = groups_get(key)
                if acc is None:
                    acc = groups[key] = GroupAccumulator()
                if count_accessor is None:
                    multiplicity = 1
                else:
                    src, col = count_accessor
                    multiplicity = (
                        row0[col]
                        if src == 0
                        else columns_by_src[src][col][binding[src]]
                    )
                acc.multiplicity += multiplicity
                if sum_accessors:
                    sums = acc.sums
                    for slot, src, col, scaled in sum_accessors:
                        value = (
                            row0[col]
                            if src == 0
                            else columns_by_src[src][col][binding[src]]
                        )
                        if scaled:
                            value = value * multiplicity
                        sums[slot] = sums.get(slot, 0) + value
                for slot, is_extremum, src, col, combine in raw_accessors:
                    value = (
                        row0[col]
                        if src == 0
                        else columns_by_src[src][col][binding[src]]
                    )
                    if is_extremum:
                        current = acc.extrema.get(slot)
                        acc.extrema[slot] = (
                            value
                            if current is None
                            else combine(current, value)
                        )
                    else:
                        acc.distincts.setdefault(slot, set()).add(value)
            ctx.count("kernel_rows", len(bindings))
            return groups

        return kernel

    @staticmethod
    def _extras_match(binding, rid, extras, stores, right_index) -> bool:
        right_columns = stores[right_index].columns
        for left_src, left_col, right_col in extras:
            if left_src == 0:
                left_value = binding[0][left_col]
            else:
                left_value = stores[left_src - 1].columns[left_col][
                    binding[left_src]
                ]
            if left_value != right_columns[right_col][rid]:
                return False
        return True

    @staticmethod
    def _resolve_propagate(source_schema, steps, providers, reconstructor):
        """Resolve join pairs and the fold program to (source, column)
        accessors against the cumulative joined schema."""
        offsets = [0]
        cumulative = source_schema
        resolved: list[_PropagateStep] = []
        for (table, pairs), provider in zip(steps, providers):
            right_schema = provider.schema
            offsets.append(len(cumulative))

            def locate(ref, _cumulative=cumulative):
                position = _cumulative.index_of(ref)
                src = 0
                for i in range(len(offsets) - 1, -1, -1):
                    if position >= offsets[i]:
                        src = i
                        break
                return src, position - offsets[src]

            if pairs:
                left_ref, right_ref = pairs[0]
                probe_src, probe_col = locate(left_ref)
                right_col = right_schema.index_of(right_ref)
                extras = tuple(
                    locate(lref) + (right_schema.index_of(rref),)
                    for lref, rref in pairs[1:]
                )
            else:
                probe_src = probe_col = 0
                right_col = None
                extras = ()
            resolved.append(
                _PropagateStep(table, probe_src, probe_col, right_col, extras)
            )
            cumulative = cumulative.concat(right_schema)
        program = reconstructor.resolve_program(cumulative)

        def to_accessor(position):
            src = 0
            for i in range(len(offsets) - 1, -1, -1):
                if position >= offsets[i]:
                    src = i
                    break
            return src, position - offsets[src]

        key_accessors = tuple(
            to_accessor(p) for p in program.key_positions
        )
        count_accessor = (
            None
            if program.count_position is None
            else to_accessor(program.count_position)
        )
        sum_accessors = tuple(
            (slot,) + to_accessor(position) + (scaled,)
            for slot, position, scaled in program.sum_items
        )
        raw_accessors = tuple(
            (slot, category is AggregateCategory.EXTREMUM)
            + to_accessor(position)
            + (
                reconstructor.combiner(slot)
                if category is AggregateCategory.EXTREMUM
                else None,
            )
            for slot, category, position in program.raw_items
        )
        fast_specs, fast_fold = _compile_fast_fold(
            resolved, key_accessors, count_accessor, sum_accessors,
            raw_accessors,
        )
        return _PropagatePlan(
            tuple(resolved),
            key_accessors,
            count_accessor,
            sum_accessors,
            raw_accessors,
            fast_specs,
            fast_fold,
        )
