"""SQLite execution backend: generated SQL over stdlib :mod:`sqlite3`.

Auxiliary views live in SQLite tables (``aux_<view>_<table>``), plan
stages run as single ``SELECT`` statements produced by
:mod:`repro.backends.sqlgen`, and a warehouse transaction maps to a
``SAVEPOINT``: the maintainer's :class:`~repro.engine.undolog.UndoLog`
still sequences rollback, but the entry this backend records restores
the data with one native ``ROLLBACK TO`` instead of replaying Python
inverses row by row.

Observability threads through at stage granularity: each executed stage
root is memoized/shared exactly like the interpreter's
:meth:`~repro.plan.physical.PhysicalNode.run`, opens the same trace
span, feeds the same ``plan:<label>`` perf timer, and folds into the
same :class:`~repro.obs.stats.ActualStats` — so ``explain --analyze``,
``perf``, and ``trace`` work unchanged.  The difference is that a stage
is one SQL round trip, so there are no per-operator sub-spans below the
stage root.

The reconstructor's group accumulation stays in Python: the SQL layer
produces the flattened propagation join (column order identical to the
interpreter's left-deep concatenation) and the compiled row program
folds the fetched rows, keeping CSMAS correction logic in one place.
"""

from __future__ import annotations

import sqlite3
import re
from collections import Counter
from time import perf_counter

from repro.backends.base import Backend, BackendError
from repro.backends.sqlgen import (
    CompiledQuery,
    NameResolver,
    compile_logical,
    compile_physical,
    render_expression,
    render_select,
)
from repro.core.maintenance import AuxMaterialization, SelfMaintenanceError
from repro.core.rewrite import GroupAccumulator
from repro.engine.operators import GroupByItem
from repro.engine.relation import Relation, RelationError
from repro.engine.rowindex import make_tuple_extractor
from repro.engine.schema import Schema
from repro.engine.types import AttributeType
from repro.plan.executor import ExecutionContext
from repro.plan.physical import AccumulateNode, DeltaScanNode

_SQL_TYPES = {
    AttributeType.INT: "INTEGER",
    AttributeType.FLOAT: "REAL",
    AttributeType.STRING: "TEXT",
    AttributeType.BOOL: "BOOLEAN",
}

#: SQLite's default variable limit is 999; stay under it when chunking.
_IN_CHUNK = 500


def _ident(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


def _result_size(result) -> int | None:
    try:
        return len(result)
    except TypeError:
        return None


def _row_decoder(schema: Schema):
    """A row post-processor undoing SQLite's type erasure (BOOL comes
    back as 0/1, and INT-typed Python floats would round-trip as REAL
    only if sent as REAL — FLOAT columns are re-coerced to float), or
    None when the schema needs no decoding."""
    converters = [
        (index, bool if a.atype is AttributeType.BOOL else float)
        for index, a in enumerate(schema)
        if a.atype in (AttributeType.BOOL, AttributeType.FLOAT)
    ]
    if not converters:
        return None

    def decode(row: tuple) -> tuple:
        out = list(row)
        for index, convert in converters:
            out[index] = convert(out[index])
        return tuple(out)

    return decode


def _noop() -> None:
    """Placeholder undo entry: the data restore itself is the backend's
    savepoint rollback; this keeps the log's row accounting non-trivial
    so ``rows_undone`` stays meaningful across backends."""


class _SQLiteMaterialization(AuxMaterialization):
    """One auxiliary view stored as a SQLite table.

    The Python-visible contract is identical to the in-memory
    materializations (same load/apply/probe/undo surface, same error
    messages); ``relation()`` fetches are cached until the next
    mutation.  Undo entries recorded here only drop derived caches —
    the data rollback is the backend savepoint.
    """

    def __init__(self, backend: "SQLiteBackend", aux, namespace: str = ""):
        super().__init__(aux)
        self._backend = backend
        self._conn = backend._conn
        prefix = f"aux_{_ident(namespace)}" if namespace else "aux"
        self.table_name = f"{prefix}_{_ident(aux.table)}"
        columns = ", ".join(
            f'"{a.name}" {_SQL_TYPES[a.atype]}' for a in self.schema
        )
        self._conn.execute(f'DROP TABLE IF EXISTS "{self.table_name}"')
        self._conn.execute(f'CREATE TABLE "{self.table_name}" ({columns})')
        # Dropping the table dropped any indexes created for a previous
        # incarnation under the same name.
        backend._ready_indexes.difference_update(
            name
            for name in tuple(backend._ready_indexes)
            if name.startswith(f"idx_{self.table_name}_")
        )
        self._select_list = ", ".join(f'"{a.name}"' for a in self.schema)
        self._insert_sql = (
            f'INSERT INTO "{self.table_name}" VALUES '
            f'({", ".join("?" * len(self.schema))})'
        )
        self._decode = _row_decoder(self.schema)
        self._cache: Relation | None = None
        self._undo = None

    # -- shared plumbing ------------------------------------------------

    def _column(self, reference: str) -> str:
        """Physical column name for a (possibly qualified) reference."""
        return self.schema[self.schema.index_of(reference)].name

    def _dirty(self) -> None:
        self._cache = None

    def _fetch_all(self) -> list[tuple]:
        cursor = self._conn.execute(
            f'SELECT {self._select_list} FROM "{self.table_name}"'
        )
        rows = cursor.fetchall()
        if self._decode is not None:
            rows = [self._decode(row) for row in rows]
        return rows

    def _ensure_index(self, column: str) -> None:
        # Cached in the backend's ready set so repeat probes skip the
        # DDL round trip entirely; a rollback conservatively forgets
        # readiness (it may have undone the CREATE), and re-creating
        # this materialization's table drops its indexes with it.
        name = f"idx_{self.table_name}_{_ident(column)}"
        ready = self._backend._ready_indexes
        if name in ready:
            return
        self._conn.execute(
            f'CREATE INDEX IF NOT EXISTS "{name}" '
            f'ON "{self.table_name}"("{column}")'
        )
        ready.add(name)

    # -- AuxMaterialization surface -------------------------------------

    def load(self, relation: Relation) -> None:
        if relation.schema != self.schema:
            raise SelfMaintenanceError(
                f"loaded relation does not match {self.aux.name} schema"
            )
        self._conn.execute(f'DELETE FROM "{self.table_name}"')
        self._conn.executemany(self._insert_sql, relation.rows)
        self._dirty()

    def relation(self) -> Relation:
        if self._cache is None:
            self._cache = Relation(
                self.schema, self._fetch_all(), validate=False
            )
        return self._cache

    def begin_undo(self, log) -> None:
        self._undo = log
        # Data restore is the backend savepoint; what must roll back
        # here is only the derived Python state (the fetch cache).
        log.record(self._dirty)

    def end_undo(self) -> None:
        self._undo = None

    def key_values(self, column: str):
        name = self._column(column)
        self._ensure_index(name)
        decode = bool if (
            self.schema[self.schema.index_of(column)].atype
            is AttributeType.BOOL
        ) else None
        cursor = self._conn.execute(
            f'SELECT DISTINCT "{name}" FROM "{self.table_name}"'
        )
        if decode is None:
            return {row[0] for row in cursor}
        return {decode(row[0]) for row in cursor}

    def rows_matching(self, column: str, values: set) -> list[tuple]:
        name = self._column(column)
        self._ensure_index(name)
        rows: list[tuple] = []
        pending = list(values)
        for start in range(0, len(pending), _IN_CHUNK):
            chunk = pending[start:start + _IN_CHUNK]
            marks = ", ".join("?" * len(chunk))
            cursor = self._conn.execute(
                f'SELECT {self._select_list} FROM "{self.table_name}" '
                f'WHERE "{name}" IN ({marks})',
                chunk,
            )
            rows.extend(cursor.fetchall())
        if self._decode is not None:
            rows = [self._decode(row) for row in rows]
        return rows

    def __len__(self) -> int:
        cursor = self._conn.execute(
            f'SELECT COUNT(*) FROM "{self.table_name}"'
        )
        return cursor.fetchone()[0]


class SQLiteProjectionMaterialization(_SQLiteMaterialization):
    """A degenerate (PSJ) auxiliary view: projected rows, bag semantics."""

    def __init__(self, backend, aux, namespace=""):
        super().__init__(backend, aux, namespace)
        self._project = make_tuple_extractor(
            tuple(aux.base_schema.index_of(name) for name in aux.plan.pinned)
        )
        conditions = " AND ".join(
            f'"{a.name}" = ?' for a in self.schema
        )
        self._delete_sql = (
            f'DELETE FROM "{self.table_name}" WHERE rowid IN '
            f'(SELECT rowid FROM "{self.table_name}" '
            f'WHERE {conditions} LIMIT ?)'
        )

    def apply(self, base_rows: list[tuple], sign: int) -> None:
        projected = list(map(self._project, base_rows))
        if not projected:
            return
        self._dirty()
        if sign > 0:
            self._conn.executemany(self._insert_sql, projected)
        else:
            for row, count in Counter(projected).items():
                cursor = self._conn.execute(
                    self._delete_sql, row + (count,)
                )
                if cursor.rowcount != count:
                    raise RelationError(
                        f"cannot delete absent rows [{row!r}]"
                    )
        if self._undo is not None:
            self._undo.record(_noop, rows=len(projected))


class SQLiteCompressedMaterialization(_SQLiteMaterialization):
    """A duplicate-compressed auxiliary view: grouped sums plus COUNT(*).

    A batch is pre-aggregated per group key in first-occurrence order,
    then folded with one SELECT + INSERT/UPDATE/DELETE per key — the
    observable semantics (including the error conditions) match the
    in-memory dictionary fold exactly.
    """

    def __init__(self, backend, aux, namespace=""):
        super().__init__(backend, aux, namespace)
        plan = aux.plan
        base = aux.base_schema
        self._pin_indexes = [base.index_of(name) for name in plan.pinned]
        self._sum_indexes = [base.index_of(name) for name in plan.folded_sums]
        self._min_indexes = [base.index_of(name) for name in plan.folded_mins]
        self._max_indexes = [base.index_of(name) for name in plan.folded_maxs]
        width = len(plan.pinned)
        pins = [a.name for a in self.schema[:width]]
        totals = [a.name for a in self.schema[width:]]
        key_match = " AND ".join(f'"{name}" = ?' for name in pins)
        totals_list = ", ".join(f'"{name}"' for name in totals)
        self._select_totals_sql = (
            f'SELECT {totals_list} FROM "{self.table_name}" '
            f'WHERE {key_match}'
        )
        self._delete_key_sql = (
            f'DELETE FROM "{self.table_name}" WHERE {key_match}'
        )
        assignments = ", ".join(f'"{name}" = ?' for name in totals)
        self._update_sql = (
            f'UPDATE "{self.table_name}" SET {assignments} '
            f'WHERE {key_match}'
        )
        self._totals_decode = _row_decoder(Schema(self.schema[width:]))

    def apply(self, base_rows: list[tuple], sign: int) -> None:
        if not base_rows:
            return
        if sign < 0 and (self._min_indexes or self._max_indexes):
            raise SelfMaintenanceError(
                f"{self.aux.name} holds folded MIN/MAX (append-only mode) "
                "and cannot absorb deletions"
            )
        self._dirty()
        n_sums = len(self._sum_indexes)
        n_extrema = len(self._min_indexes) + len(self._max_indexes)
        count_slot = n_sums + n_extrema
        order: list[tuple] = []
        batched: dict[tuple, list] = {}
        for row in base_rows:
            key = tuple(row[i] for i in self._pin_indexes)
            entry = batched.get(key)
            if entry is None:
                order.append(key)
                entry = batched[key] = (
                    [0] * n_sums
                    + [row[i] for i in self._min_indexes]
                    + [row[i] for i in self._max_indexes]
                    + [0]
                )
            for slot, index in enumerate(self._sum_indexes):
                entry[slot] += row[index]
            slot = n_sums
            for index in self._min_indexes:
                entry[slot] = min(entry[slot], row[index])
                slot += 1
            for index in self._max_indexes:
                entry[slot] = max(entry[slot], row[index])
                slot += 1
            entry[count_slot] += 1
        for key in order:
            delta = batched[key]
            if self._undo is not None:
                self._undo.record(_noop, rows=1)
            found = self._conn.execute(
                self._select_totals_sql, key
            ).fetchone()
            if found is None:
                if sign < 0:
                    raise SelfMaintenanceError(
                        f"{self.aux.name}: deletion from absent group {key!r}"
                    )
                self._conn.execute(
                    self._insert_sql, key + tuple(delta)
                )
                continue
            totals = list(
                found if self._totals_decode is None
                else self._totals_decode(found)
            )
            count = totals[count_slot] + sign * delta[count_slot]
            if count == 0:
                self._conn.execute(self._delete_key_sql, key)
                continue
            if count < 0:
                raise SelfMaintenanceError(
                    f"{self.aux.name}: negative count in group {key!r}"
                )
            for slot in range(n_sums):
                totals[slot] += sign * delta[slot]
            slot = n_sums
            for _ in self._min_indexes:
                totals[slot] = min(totals[slot], delta[slot])
                slot += 1
            for _ in self._max_indexes:
                totals[slot] = max(totals[slot], delta[slot])
                slot += 1
            totals[count_slot] = count
            self._conn.execute(self._update_sql, tuple(totals) + key)


class _CtxResolver(NameResolver):
    """Resolves plan sources against one execution context's bindings."""

    def __init__(self, backend: "SQLiteBackend", ctx: ExecutionContext):
        self._backend = backend
        self._ctx = ctx

    def physical(self, source: str) -> str:
        provider = self._ctx.provider(source)
        name = getattr(provider, "table_name", None)
        if name is None:
            raise BackendError(
                f"materialization for {source!r} is not SQLite-backed"
            )
        return name

    def schema(self, source: str) -> Schema:
        return self._ctx.provider(source).schema

    def delta_physical(self, table: str, sign: int) -> str:
        return self._backend._delta_table(
            table, sign, self._ctx.delta(table, sign).schema
        )

    def delta_schema(self, table: str, sign: int) -> Schema:
        return self._ctx.delta(table, sign).schema


class _BaseResolver(NameResolver):
    """Resolves logical scans against freshly loaded base-table copies
    (view recomputation does read sources — it is the one-time load)."""

    def __init__(self, backend: "SQLiteBackend", database):
        self._backend = backend
        self._database = database

    def physical(self, source: str) -> str:
        return self._backend._load_base_table(
            source, self._database.relation(source)
        )

    def schema(self, source: str) -> Schema:
        return self._database.relation(source).schema

    def delta_physical(self, table: str, sign: int) -> str:
        raise BackendError("view recomputation has no delta bindings")

    def delta_schema(self, table: str, sign: int) -> Schema:
        raise BackendError("view recomputation has no delta bindings")


class SQLiteBackend(Backend):
    """Run plans as generated SQL on a stdlib :mod:`sqlite3` database."""

    name = "sqlite"

    def __init__(self, path: str = ":memory:"):
        self.path = path
        # check_same_thread=False: the serving layer hands the backend
        # from the thread that built the warehouse to the apply queue's
        # single worker.  Access stays serialized — one writer at any
        # time — which is the contract that flag requires.
        self._conn = sqlite3.connect(
            path, isolation_level=None, check_same_thread=False
        )
        self._open_savepoints: list[str] = []
        self._savepoint_seq = 0
        # Keyed by id(node); the node reference keeps ids from being
        # recycled while an entry is live.
        self._compiled: dict[int, tuple[object, CompiledQuery]] = {}
        self._delta_tables: dict[tuple[str, int], str] = {}
        # Scratch tables known to exist outside any rolled-back scope,
        # plus their prepared INSERT statements: staging a delta is then
        # DELETE + executemany with no per-transaction DDL.
        self._delta_ready: set[tuple[str, int]] = set()
        self._delta_insert: dict[tuple[str, int], str] = {}
        #: Index names known to exist outside any rolled-back scope.
        self._ready_indexes: set[str] = set()
        #: id(node) -> (node, grouped-accumulate spec | None): the
        #: pushed-down GROUP BY form of each AccumulateNode's join, or
        #: None for shapes that must keep the Python fold.
        self._accumulate_group: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Materializations.
    # ------------------------------------------------------------------

    def make_materialization(self, aux, namespace="", **_ignored):
        if aux.is_compressed:
            return SQLiteCompressedMaterialization(self, aux, namespace)
        return SQLiteProjectionMaterialization(self, aux, namespace)

    # ------------------------------------------------------------------
    # Plan execution.
    # ------------------------------------------------------------------

    def run_plan(self, node, ctx: ExecutionContext):
        """Execute one stage root: same memo/shared-cache/trace/perf
        contract as :meth:`PhysicalNode.run`, one SQL statement inside."""
        memo = ctx.memo
        key = id(node)
        if key in memo:
            if ctx.trace is not None:
                ctx.trace.instant(
                    node.label, kind="plan", cache_hit=True, cache="memo"
                )
            return memo[key]
        shared = ctx.shared
        share_key = node.share_key
        if shared is not None and share_key is not None:
            if share_key in shared:
                cached = shared[share_key]
                ctx.count("plan_shared_hits")
                node.stats.record_reuse()
                if ctx.trace is not None:
                    span = ctx.trace.instant(
                        node.label, kind="plan", cache_hit=True,
                        cache="shared",
                    )
                    span.rows_out = _result_size(cached)
                memo[key] = cached
                return cached
        self._bind_deltas(node, ctx)
        if ctx.trace is None:
            result = self._run_timed(node, ctx)
        else:
            with ctx.trace.span(node.label, kind="plan") as span:
                result = self._run_timed(node, ctx)
                span.rows_out = _result_size(result)
        memo[key] = result
        if shared is not None and share_key is not None:
            shared[share_key] = result
        return result

    def _run_timed(self, node, ctx: ExecutionContext):
        started = perf_counter()
        result = self._execute_stage(node, ctx)
        elapsed = perf_counter() - started
        if ctx.perf is not None:
            ctx.perf.seconds[node._timer_key] += elapsed
        node.stats.record(_result_size(result), elapsed)
        return result

    def _execute_stage(self, node, ctx: ExecutionContext):
        resolver = _CtxResolver(self, ctx)
        if isinstance(node, AccumulateNode):
            compiled = self._compile(node.children[0], node, resolver)
            spec = self._accumulate_spec(node, compiled)
            if spec is not None:
                return self._run_grouped_accumulate(spec)
            joined = self._fetch(compiled)
            if not joined:
                return {}
            reconstructor = node.reconstructor
            program = reconstructor.compile_program(joined.schema)
            contributions: dict = {}
            reconstructor.run_program(program, joined.rows, contributions)
            return contributions
        return self._fetch(self._compile(node, node, resolver))

    def _accumulate_spec(self, node, compiled: CompiledQuery):
        """The pushed-down ``GROUP BY`` form of one AccumulateNode, or
        None when the shape must keep the Python fold.

        Eligibility mirrors the columnar backend's compiled fold — only
        COUNT/SUM/AVG items (extrema and DISTINCT need raw values) —
        plus an exactness guard: every referenced column must carry
        integer affinity (INT or BOOL keys; INT sums and multiplicity),
        so SQLite's fold order cannot perturb float sums and the result
        stays bit-identical to the interpreter's row-order fold.
        """
        key = id(node)
        entry = self._accumulate_group.get(key)
        if entry is not None and entry[0] is node:
            return entry[1]
        spec = self._compile_grouped_accumulate(node, compiled)
        self._accumulate_group[key] = (node, spec)
        return spec

    def _compile_grouped_accumulate(self, node, compiled: CompiledQuery):
        program = node.reconstructor.resolve_program(compiled.schema)
        if program.raw_items:
            return None
        statement = compiled.statement
        if statement.group_by or statement.having is not None \
                or statement.distinct:
            return None
        items = statement.items
        schema = compiled.schema
        if len(items) != len(schema):
            return None
        count_position = program.count_position
        referenced = list(program.key_positions)
        if count_position is not None:
            referenced.append(count_position)
        referenced.extend(p for __, p, __ in program.sum_items)
        if any(not isinstance(items[p], GroupByItem) for p in referenced):
            return None
        for position in program.key_positions:
            if schema[position].atype is AttributeType.FLOAT:
                return None
        int_positions = list(p for __, p, __ in program.sum_items)
        if count_position is not None:
            int_positions.append(count_position)
        if any(
            schema[p].atype is not AttributeType.INT for p in int_positions
        ):
            return None
        key_sql = [items[p].column.to_sql() for p in program.key_positions]
        if count_position is None:
            mult_sql = "COUNT(*)"
            scale_sql = None
        else:
            mult_column = items[count_position].column.to_sql()
            mult_sql = f"SUM({mult_column})"
            scale_sql = mult_column
        select = list(key_sql)
        select.append(mult_sql)
        sum_slots = []
        for slot, position, scaled in program.sum_items:
            value_sql = items[position].column.to_sql()
            if scaled and scale_sql is not None:
                select.append(f"SUM({value_sql} * {scale_sql})")
            else:
                select.append(f"SUM({value_sql})")
            sum_slots.append(slot)
        sql = (
            f"SELECT {', '.join(select)} FROM "
            f"{', '.join(table.to_sql() for table in statement.tables)}"
        )
        if statement.where:
            conditions = " AND ".join(
                render_expression(c) for c in statement.where
            )
            sql += f" WHERE {conditions}"
        if key_sql:
            sql += f" GROUP BY {', '.join(key_sql)}"
        else:
            # A keyless aggregate yields one row even over empty input;
            # the fold yields no group at all (same adaptation as the
            # view-evaluation SQL — see engine/aggregates.py).
            sql += " HAVING COUNT(*) > 0"
        bool_keys = tuple(
            i
            for i, p in enumerate(program.key_positions)
            if schema[p].atype is AttributeType.BOOL
        )
        return (sql, len(program.key_positions), tuple(sum_slots), bool_keys)

    def _run_grouped_accumulate(self, spec) -> dict:
        sql, n_keys, sum_slots, bool_keys = spec
        contributions: dict = {}
        for row in self._conn.execute(sql):
            key = row[:n_keys]
            if bool_keys:
                decoded = list(key)
                for i in bool_keys:
                    decoded[i] = bool(decoded[i])
                key = tuple(decoded)
            acc = GroupAccumulator(row[n_keys])
            sums = acc.sums
            for offset, slot in enumerate(sum_slots, start=n_keys + 1):
                sums[slot] = row[offset]
            contributions[key] = acc
        return contributions

    def _compile(self, node, cache_node, resolver) -> CompiledQuery:
        """Compile ``node``, caching per plan identity (plans are static
        per (view, delta shape), so the generated SQL is too)."""
        key = id(cache_node)
        entry = self._compiled.get(key)
        if entry is not None and entry[0] is cache_node:
            return entry[1]
        compiled = compile_physical(node, resolver)
        self._compiled[key] = (cache_node, compiled)
        return compiled

    def _fetch(self, compiled: CompiledQuery) -> Relation:
        rows = self._conn.execute(
            render_select(compiled.statement)
        ).fetchall()
        decode = _row_decoder(compiled.schema)
        if decode is not None:
            rows = [decode(row) for row in rows]
        return Relation(compiled.schema, rows, validate=False)

    def execute_view_plan(self, plan, database) -> Relation:
        resolver = _BaseResolver(self, database)
        compiled = compile_logical(plan.optimized, resolver)
        return self._fetch(compiled)

    # ------------------------------------------------------------------
    # Delta and base-table staging.
    # ------------------------------------------------------------------

    def _delta_table(self, table: str, sign: int, schema: Schema) -> str:
        mark = "ins" if sign > 0 else "del"
        name = f"delta_{mark}_{_ident(table)}"
        key = (table, sign)
        if key not in self._delta_ready:
            columns = ", ".join(
                f'"{a.name}" {_SQL_TYPES[a.atype]}' for a in schema
            )
            # IF NOT EXISTS: a rollback may have undone the CREATE of a
            # scratch table first staged inside that savepoint (see
            # _rollback_to, which conservatively forgets readiness).
            self._conn.execute(
                f'CREATE TABLE IF NOT EXISTS "{name}" ({columns})'
            )
            self._delta_ready.add(key)
        self._delta_tables[key] = name
        return name

    def _bind_deltas(self, node, ctx: ExecutionContext) -> None:
        """Stage every delta the subtree scans into its scratch table,
        once per execution context (stages of one transaction share the
        loaded deltas through the context memo)."""
        for leaf in node.walk():
            if not isinstance(leaf, DeltaScanNode):
                continue
            marker = ("sqlite-delta", leaf.table, leaf.sign)
            if marker in ctx.memo:
                continue
            delta = ctx.delta(leaf.table, leaf.sign)
            name = self._delta_table(leaf.table, leaf.sign, delta.schema)
            self._conn.execute(f'DELETE FROM "{name}"')
            if delta.rows:
                key = (leaf.table, leaf.sign)
                insert = self._delta_insert.get(key)
                if insert is None:
                    marks = ", ".join("?" * len(delta.schema))
                    insert = self._delta_insert[key] = (
                        f'INSERT INTO "{name}" VALUES ({marks})'
                    )
                self._conn.executemany(insert, delta.rows)
            ctx.memo[marker] = True

    def _load_base_table(self, table: str, relation: Relation) -> str:
        name = f"base_{_ident(table)}"
        columns = ", ".join(
            f'"{a.name}" {_SQL_TYPES[a.atype]}' for a in relation.schema
        )
        self._conn.execute(f'DROP TABLE IF EXISTS "{name}"')
        self._conn.execute(f'CREATE TABLE "{name}" ({columns})')
        if relation.rows:
            marks = ", ".join("?" * len(relation.schema))
            self._conn.executemany(
                f'INSERT INTO "{name}" VALUES ({marks})', relation.rows
            )
        return name

    # ------------------------------------------------------------------
    # Transactions (savepoint per warehouse transaction).
    # ------------------------------------------------------------------

    def begin_transaction(self, log) -> None:
        self._savepoint_seq += 1
        name = f"sp_{self._savepoint_seq}"
        self._conn.execute(f"SAVEPOINT {name}")
        self._open_savepoints.append(name)
        log.record(lambda name=name: self._rollback_to(name))

    def _rollback_to(self, name: str) -> None:
        # The savepoint may already be gone: a warehouse coordinator
        # rolling back several maintainers releases nested savepoints
        # with the first (outermost) restore it runs.
        if name not in self._open_savepoints:
            return
        self._conn.execute(f"ROLLBACK TO {name}")
        self._conn.execute(f"RELEASE {name}")
        del self._open_savepoints[self._open_savepoints.index(name):]
        # The rollback may have undone the CREATE TABLE / CREATE INDEX
        # of any scratch table or probe index first issued inside the
        # savepoint; re-create on next use.
        self._delta_ready.clear()
        self._ready_indexes.clear()

    def commit(self) -> None:
        if not self._open_savepoints:
            return
        # Releasing the outermost savepoint commits it and every nested
        # one in a single step.
        self._conn.execute(f"RELEASE {self._open_savepoints[0]}")
        self._open_savepoints.clear()

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def physical_detail_size_bytes(self, materializations) -> int | None:
        """On-disk bytes of the auxiliary tables via the ``dbstat``
        virtual table, or None when dbstat is unavailable in this
        SQLite build."""
        names = [
            m.table_name
            for m in materializations
            if getattr(m, "table_name", None) is not None
        ]
        if not names:
            return 0
        marks = ", ".join("?" * len(names))
        try:
            row = self._conn.execute(
                f"SELECT COALESCE(SUM(pgsize), 0) FROM dbstat "
                f"WHERE name IN ({marks})",
                names,
            ).fetchone()
        except sqlite3.Error:
            return None
        return int(row[0])

    def close(self) -> None:
        self._conn.close()
