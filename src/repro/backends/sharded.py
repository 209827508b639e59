"""Sharded execution: delta propagation partitioned across N shards.

The paper's auxiliary-view construction is embarrassingly shardable.
Local reduction is per-row, duplicate compression is per-group, and the
propagation join touches exactly one root (fact) row per joined row —
so hash-partitioning the root auxiliary view by its pinned (group-by)
columns routes every delta row to exactly one shard, and the shards'
contributions merge *exactly*: multiplicities and sums add, extrema
combine with the view's own MIN/MAX, and auxiliary bags concatenate.

Routing is derived from the join graph, never guessed:

* the **root** auxiliary view is *partitioned* by the hash of its
  pinned columns (the compression plan's group key), keeping every
  compressed group wholly inside one shard so per-shard folds stay
  exact;
* when the root was *eliminated* (its auxiliary view is the view
  itself), root delta rows are partitioned by whole-row hash — each
  joined row still involves exactly one delta row, so any deterministic
  partition of the delta partitions the join;
* every **dimension** auxiliary view is *replicated* — dimensions are
  the small side of the star, and replication makes each shard's
  propagation join self-contained (no cross-shard probes, ever).

Two execution modes share one API.  ``serial`` loops over the shards
in-process: deterministic, debuggable, and transparent to the
:class:`~repro.testing.faults.FaultInjector` harness (per-shard
materializations record into the same undo log the interpreter uses).
``parallel`` keeps N persistent worker processes (forked once, fed
pickled coalesced deltas over pipes); each worker compiles its own
per-shard :class:`~repro.plan.maintenance.DeltaPlans` once and applies
its partition locally, with a token-stack of undo scopes standing in
for SQLite's savepoints so a shard failure rolls every shard back and
``apply`` stays all-or-nothing.

The deterministic partitioner is ``crc32(repr(key))`` — the builtin
``hash`` is salted per process and would route the same row to
different shards in parent and workers.

Tracing crosses the process boundary: when the transaction is traced,
serial mode wraps every per-shard plan run in a ``shard:<k>`` span
(inner plan-node spans nest inside), and parallel mode asks each worker
to record its stage into a temporary per-shard trace whose serialized
spans ride back on the reply and are grafted — re-parented, re-id'd,
shard-labeled — under the parent's open stage span
(:meth:`~repro.obs.trace.Trace.graft`).  Either way one traced apply
renders a single connected tree with no per-shard holes.
"""

from __future__ import annotations

import multiprocessing
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

from repro.backends.base import Backend, BackendError
from repro.engine.relation import Relation
from repro.engine.undolog import UndoLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Trace
from repro.plan.executor import ExecutionContext
from repro.plan.physical import AccumulateNode, DeltaScanNode, KeyProbeSemiJoinNode

#: Metric names exported by the backend's registry.
SHARD_ROUTED_ROWS = "repro_shard_routed_rows_total"
SHARD_COUNT_GAUGE = "repro_shard_count"
SHARD_QUEUE_DEPTH = "repro_shard_worker_queue_depth"
#: Seconds of plan execution attributable to each shard (serial mode
#: times every per-shard run; the scaling benchmark projects the
#: critical path from these — total over max — without needing N cores).
SHARD_COMPUTE_SECONDS = "repro_shard_compute_seconds_total"
#: Seconds spent in replicated single-runs — work every worker repeats
#: in parallel mode, so it bounds the achievable speedup (Amdahl).
SHARD_REPLICATED_SECONDS = "repro_shard_replicated_seconds_total"


# ----------------------------------------------------------------------
# Routing, derived from the join graph.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TableRouting:
    """How one table's delta and auxiliary rows reach the shards."""

    table: str
    mode: str  # "partition" | "replicate"
    #: Qualified pinned columns the partition hash reads (empty for
    #: replicated tables, and for whole-row routing of an eliminated root).
    columns: tuple[str, ...]
    #: Positions of ``columns`` in the table's *base* schema (delta rows).
    base_indexes: tuple[int, ...]


@dataclass(frozen=True)
class ViewRouting:
    """The per-table routing decisions for one maintained view."""

    namespace: str
    root: str
    tables: dict


def derive_routing(view, graph, aux_set, namespace: str) -> ViewRouting:
    """Partition the root by its pinned (group) columns; replicate the
    dimensions.  See the module docstring for why this is exact."""
    root = graph.root
    tables: dict[str, TableRouting] = {}
    for table in view.tables:
        if table != root:
            tables[table] = TableRouting(table, "replicate", (), ())
        elif aux_set.has_view(root):
            aux = aux_set.for_table(root)
            pinned = tuple(aux.plan.pinned)
            base_indexes = tuple(
                aux.base_schema.index_of(name) for name in pinned
            )
            tables[root] = TableRouting(root, "partition", pinned, base_indexes)
        else:
            # Root eliminated: nothing compressed to keep together, so
            # partition its delta by whole-row hash (contributions of
            # distinct delta rows are additive, hence exact).
            tables[root] = TableRouting(root, "partition", (), ())
    return ViewRouting(namespace, root, tables)


def shard_of(values: tuple, n_shards: int) -> int:
    """Deterministic, cross-process stable shard of a routing key."""
    return zlib.crc32(repr(values).encode("utf-8")) % n_shards


def partition_rows(rows, indexes: tuple[int, ...], n_shards: int) -> list[list]:
    """Split ``rows`` by the hash of the values at ``indexes`` (whole
    row when ``indexes`` is empty)."""
    parts: list[list] = [[] for _ in range(n_shards)]
    if indexes:
        for row in rows:
            parts[shard_of(tuple(row[i] for i in indexes), n_shards)].append(row)
    else:
        for row in rows:
            parts[shard_of(row, n_shards)].append(row)
    return parts


def partition_output_rows(rows, width: int, n_shards: int) -> list[list]:
    """Split auxiliary *output* rows, whose first ``width`` values are
    the pinned columns in pinned order (whole row when ``width`` is 0 —
    the eliminated-root projection)."""
    parts: list[list] = [[] for _ in range(n_shards)]
    if width:
        for row in rows:
            parts[shard_of(row[:width], n_shards)].append(row)
    else:
        for row in rows:
            parts[shard_of(row, n_shards)].append(row)
    return parts


def merge_contributions(merged: dict, part: dict, combiners: dict) -> None:
    """Fold one shard's ``{group key: GroupAccumulator}`` into ``merged``.

    Exact by construction: multiplicities and sums add, extrema combine
    with the view's own MIN/MAX semantics (``combiners`` maps projection
    index to ``min``/``max``), and DISTINCT collections union.
    """
    for key, acc in part.items():
        into = merged.get(key)
        if into is None:
            merged[key] = acc
            continue
        into.multiplicity += acc.multiplicity
        for index, value in acc.sums.items():
            into.sums[index] = into.sums.get(index, 0) + value
        for index, value in acc.extrema.items():
            if index in into.extrema:
                into.extrema[index] = combiners[index](into.extrema[index], value)
            else:
                into.extrema[index] = value
        for index, values in acc.distincts.items():
            if index in into.distincts:
                into.distincts[index] |= values
            else:
                into.distincts[index] = values


def _fold_stat_record(target: dict, record: dict) -> None:
    """Accumulate one worker's observed-node record into ``target``
    (additive fields sum, the max tracks the max, the mean re-derives)."""
    target["executions"] += record["executions"]
    target["rows_out"] += record["rows_out"]
    target["rows_out_max"] = max(target["rows_out_max"], record["rows_out_max"])
    target["total_ms"] = round(target["total_ms"] + record["total_ms"], 3)
    target["reuses"] += record["reuses"]
    executions = target["executions"]
    target["mean_rows_out"] = (
        round(target["rows_out"] / executions, 3) if executions else 0.0
    )


def _merge_stat_records(target: list, records: list) -> None:
    """Merge one worker's ``collect_node_stats`` list into the parent's.

    Matching is by node description + label with per-key occurrence
    counters, not by position: the parent's plan (stage roots only in
    parallel mode) and each worker's per-shard plan may differ in shape
    (cost planning consults shard-local statistics), so the k-th
    occurrence of an operator folds into the parent's k-th occurrence
    of the same operator, and unmatched worker nodes are appended.
    """
    index: dict[tuple, list[dict]] = {}
    for record in target:
        index.setdefault((record["node"], record["label"]), []).append(record)
    used: dict[tuple, int] = {}
    for record in records:
        key = (record["node"], record["label"])
        position = used.get(key, 0)
        used[key] = position + 1
        matches = index.get(key, [])
        if position < len(matches):
            _fold_stat_record(matches[position], record)
        else:
            appended = {**record, "shard_only": True}
            target.append(appended)
            index.setdefault(key, []).append(appended)


@contextmanager
def _shard_span(trace, shard: int | None):
    """A ``shard:<k>`` span around one per-shard plan run (``None``
    shard = the single replicated run); no-op when untraced."""
    if trace is None:
        yield
        return
    name = "replicated" if shard is None else f"shard:{shard}"
    with trace.span(name, kind="shard", shard=shard):
        yield


def _result_size(result) -> int | None:
    if result is None:
        return None
    try:
        return len(result)
    except TypeError:  # pragma: no cover - defensive
        return None


def _extremum_combiners(view) -> dict:
    """``projection index -> min|max`` for the view's extremum items."""
    from repro.engine.aggregates import AggregateFunction
    from repro.engine.operators import AggregateItem

    combiners = {}
    for index, item in enumerate(view.projection):
        if isinstance(item, AggregateItem) and item.func in (
            AggregateFunction.MIN,
            AggregateFunction.MAX,
        ):
            combiners[index] = (
                min if item.func is AggregateFunction.MIN else max
            )
    return combiners


# ----------------------------------------------------------------------
# Serial-mode materializations.
# ----------------------------------------------------------------------


class _SerialPartitionedMaterialization:
    """The root auxiliary view as N per-shard core materializations.

    Shard contexts read the per-shard parts directly (``.parts``); the
    maintainer-facing surface (``relation``, ``key_values``, ...) serves
    merged views, concatenated lazily and cached until the next apply.
    """

    def __init__(self, aux, namespace, backend, routing):
        from repro.core.maintenance import make_materialization

        self.aux = aux
        self.schema = aux.output_schema()
        self.namespace = namespace
        self.routing = routing
        self._backend = backend
        self.parts = [
            make_materialization(aux) for _ in range(backend.n_shards)
        ]
        self._cache: Relation | None = None

    def _drop_caches(self) -> None:
        self._cache = None

    def load(self, relation: Relation) -> None:
        from repro.core.maintenance import SelfMaintenanceError

        if relation.schema != self.schema:
            raise SelfMaintenanceError(
                f"loaded relation does not match {self.aux.name} schema"
            )
        width = len(self.routing.columns)
        parts = partition_output_rows(
            relation.rows, width, len(self.parts)
        )
        for part, rows in zip(self.parts, parts):
            part.load(Relation(self.schema, rows, validate=False))
        self._cache = relation.copy()

    def relation(self) -> Relation:
        if self._cache is None:
            rows: list[tuple] = []
            for part in self.parts:
                rows.extend(part.relation().rows)
            self._cache = Relation(self.schema, rows, validate=False)
        return self._cache

    def apply(self, base_rows, sign: int) -> None:
        self._cache = None
        parts = partition_rows(
            base_rows, self.routing.base_indexes, len(self.parts)
        )
        for part, rows in zip(self.parts, parts):
            if rows:
                part.apply(rows, sign)

    def begin_undo(self, log: UndoLog) -> None:
        log.record(self._drop_caches)
        for part in self.parts:
            part.begin_undo(log)

    def end_undo(self) -> None:
        for part in self.parts:
            part.end_undo()

    def key_values(self, column: str):
        merged: set = set()
        for part in self.parts:
            merged.update(part.key_values(column))
        return merged

    def rows_matching(self, column: str, values: set) -> list[tuple]:
        rows: list[tuple] = []
        for part in self.parts:
            rows.extend(part.rows_matching(column, values))
        return rows

    def size_bytes(self) -> int:
        return sum(part.size_bytes() for part in self.parts)

    def __len__(self) -> int:
        return sum(len(part) for part in self.parts)


# ----------------------------------------------------------------------
# Parallel mode: the worker side.
# ----------------------------------------------------------------------


class _WorkerRuntime:
    """One maintained view inside one worker process.

    A throwaway :class:`SelfMaintainer` over a rows-free catalog clone
    rebuilds the exact materialization classes and compiled
    :class:`DeltaPlans` of the parent — per-shard plans compiled once
    per worker, reused for every transaction.
    """

    def __init__(self, payload):
        from repro.core.maintenance import SelfMaintainer
        from repro.sql import parse_view

        view_sql, catalog_spec, append_only = payload
        database = _build_catalog(catalog_spec)
        view = parse_view(view_sql, database)
        self.maintainer = SelfMaintainer(
            view,
            database,
            append_only=append_only,
            initialize=False,
            backend="memory",
        )
        #: Execution contexts per (table, sign), rebuilt on every
        #: ``delta`` command so stage results memoize within one delta.
        self.contexts: dict = {}


def _catalog_spec(database) -> list:
    """A picklable, rows-free description of the base-table catalog."""
    return [
        (
            table.name,
            [(a.name, a.atype) for a in table.schema],
            table.key,
            {c.attribute: c.referenced for c in table.references},
            table.exposed_updates,
        )
        for table in database.tables
    ]


def _build_catalog(spec):
    from repro.catalog.database import BaseTable, Database

    database = Database()
    for name, columns, key, references, exposed_updates in spec:
        database.add_table(
            BaseTable(name, dict(columns), key, references, exposed_updates)
        )
    return database


def _all_materializations(runtimes):
    for runtime in runtimes.values():
        yield from runtime.maintainer._materializations.values()


def _rebind_undo(runtimes, scopes) -> None:
    """Point every materialization's undo hook at the innermost open
    scope (or close the hooks when none remain)."""
    if scopes:
        log = scopes[-1][1]
        for materialization in _all_materializations(runtimes):
            materialization.end_undo()
            materialization.begin_undo(log)
    else:
        for materialization in _all_materializations(runtimes):
            materialization.end_undo()


def _handle_command(runtimes, scopes, message, shard: int = 0):
    """Execute one parent command inside the worker; returns the reply
    payload.  Raises to report a failure (the loop pickles it back)."""
    command = message[0]
    if command == "prepare_view":
        __, namespace, payload = message
        runtimes[namespace] = _WorkerRuntime(payload)
        if scopes:
            # A view registered inside an open transaction joins the
            # innermost scope so a later rollback restores it too.
            _rebind_undo(runtimes, scopes)
        return None
    if command == "load":
        __, namespace, table, rows = message
        materialization = runtimes[namespace].maintainer._materializations[table]
        materialization.load(
            Relation(materialization.schema, rows, validate=False)
        )
        return None
    if command == "delta":
        __, namespace, table, sign, rows = message
        runtime = runtimes[namespace]
        maintainer = runtime.maintainer
        schema = maintainer._tables[table].schema
        runtime.contexts[(table, sign)] = ExecutionContext(
            providers=maintainer._materializations,
            perf=maintainer.perf,
            deltas={(table, sign): Relation(schema, rows, validate=False)},
        )
        return None
    if command == "stage":
        __, namespace, table, sign, stage = message[:5]
        traced = len(message) > 5 and bool(message[5])
        runtime = runtimes[namespace]
        plans = runtime.maintainer.delta_plans(table, sign)
        node = {
            "local": plans.local,
            "reduce": plans.reduce,
            "propagate": plans.propagate,
        }[stage]
        context = runtime.contexts[(table, sign)]
        trace = None
        if traced:
            # Record this shard's plan spans into a throwaway trace; the
            # serialized spans ride the reply and the parent grafts them
            # under its open stage span — no per-shard trace holes.
            trace = Trace(0, f"shard:{shard}", kind="shard", shard=shard)
            context.trace = trace
        try:
            result = node.run(context)
        finally:
            if traced:
                context.trace = None
        spans = None
        if trace is not None:
            trace.finish()
            spans = trace.to_dicts()
        if isinstance(result, dict):
            return ("acc", result, spans)
        return ("rows", result.rows, spans)
    if command == "apply_reduced":
        # Apply this shard's own memoized reduce result — the parent
        # already holds the merged rows, so none cross the pipe again.
        __, namespace, table, sign = message
        runtime = runtimes[namespace]
        plans = runtime.maintainer.delta_plans(table, sign)
        reduced = plans.reduce.run(runtime.contexts[(table, sign)])
        runtime.maintainer._materializations[table].apply(reduced.rows, sign)
        return len(reduced)
    if command == "apply":
        __, namespace, table, rows, sign = message
        runtimes[namespace].maintainer._materializations[table].apply(rows, sign)
        return None
    if command == "begin":
        __, token = message
        log = UndoLog()
        scopes.append((token, log))
        _rebind_undo(runtimes, scopes)
        return None
    if command == "rollback":
        __, token = message
        undone = 0
        while scopes and scopes[-1][0] >= token:
            __, log = scopes.pop()
            undone += log.rollback()
        _rebind_undo(runtimes, scopes)
        return undone
    if command == "commit":
        scopes.clear()
        _rebind_undo(runtimes, scopes)
        return None
    if command == "relation":
        __, namespace, table = message
        return runtimes[namespace].maintainer._materializations[table].relation().rows
    if command == "key_values":
        __, namespace, table, column = message
        return set(
            runtimes[namespace].maintainer._materializations[table].key_values(column)
        )
    if command == "rows_matching":
        __, namespace, table, column, values = message
        return runtimes[namespace].maintainer._materializations[table].rows_matching(
            column, values
        )
    if command == "len":
        __, namespace, table = message
        return len(runtimes[namespace].maintainer._materializations[table])
    if command == "size_bytes":
        __, namespace, table = message
        return runtimes[namespace].maintainer._materializations[table].size_bytes()
    if command == "metrics":
        merged = MetricsRegistry()
        for runtime in runtimes.values():
            merged.merge(runtime.maintainer.perf.registry)
        return merged
    if command == "runtime_stats":
        __, namespace = message
        return runtimes[namespace].maintainer.runtime_stats()
    raise BackendError(f"unknown shard worker command {command!r}")


def _worker_main(conn, shard: int, n_shards: int) -> None:
    """The persistent worker loop: recv command, reply ``("ok", ...)``
    or ``("error", exception)``.  Exactly one reply per command keeps
    the pipes in lockstep even across failures."""
    runtimes: dict[str, _WorkerRuntime] = {}
    scopes: list = []
    while True:
        try:
            message = conn.recv()
        except (EOFError, KeyboardInterrupt):
            return
        if message[0] == "close":
            conn.send(("ok", None))
            conn.close()
            return
        try:
            result = _handle_command(runtimes, scopes, message, shard)
        except BaseException as exc:  # noqa: BLE001 - forwarded to parent
            try:
                conn.send(("error", exc))
            except Exception:
                conn.send(
                    ("error", BackendError(f"{type(exc).__name__}: {exc}"))
                )
            continue
        conn.send(("ok", result))


def _mp_context():
    try:
        # Fork keeps worker start cheap and inherits the imported modules.
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        return multiprocessing.get_context("spawn")


class _Worker:
    __slots__ = ("shard", "process", "conn", "pending")

    def __init__(self, shard, process, conn):
        self.shard = shard
        self.process = process
        self.conn = conn
        self.pending = 0


# ----------------------------------------------------------------------
# Parallel mode: the parent-side materialization proxy.
# ----------------------------------------------------------------------


class _ParallelShardedMaterialization:
    """Parent-side proxy for one auxiliary view living in the workers.

    Writes scatter partitioned rows (or broadcast replicated ones);
    reads fetch on demand and cache until the next mutation.  Data
    rollback is the backend's token scope — ``begin_undo`` only records
    the parent cache drop.
    """

    def __init__(self, backend, aux, namespace, routing):
        self.aux = aux
        self.schema = aux.output_schema()
        self.namespace = namespace
        self.routing = routing
        self._backend = backend
        self._cache: Relation | None = None
        self._key_cache: dict[str, set] = {}
        #: ``(rows list identity, sign)`` of the last merged reduce
        #: result — lets ``apply`` tell the workers to fold their own
        #: memoized partition instead of re-shipping the rows.
        self._pending_reduced: tuple | None = None

    def _drop_caches(self) -> None:
        self._cache = None
        self._key_cache.clear()
        self._pending_reduced = None

    def load(self, relation: Relation) -> None:
        from repro.core.maintenance import SelfMaintenanceError

        if relation.schema != self.schema:
            raise SelfMaintenanceError(
                f"loaded relation does not match {self.aux.name} schema"
            )
        backend = self._backend
        self._drop_caches()
        if self.routing.mode == "partition":
            parts = partition_output_rows(
                relation.rows, len(self.routing.columns), backend.n_shards
            )
            backend._scatter(
                [
                    ("load", self.namespace, self.aux.table, rows)
                    for rows in parts
                ]
            )
        else:
            backend._broadcast(
                ("load", self.namespace, self.aux.table, list(relation.rows))
            )
        self._cache = relation.copy()

    def relation(self) -> Relation:
        if self._cache is None:
            message = ("relation", self.namespace, self.aux.table)
            if self.routing.mode == "partition":
                rows = [
                    row
                    for part in self._backend._broadcast(message)
                    for row in part
                ]
            else:
                rows = self._backend._first(message)
            self._cache = Relation(self.schema, rows, validate=False)
        return self._cache

    def apply(self, base_rows, sign: int) -> None:
        backend = self._backend
        pending = self._pending_reduced
        self._drop_caches()
        if (
            pending is not None
            and pending[0] is base_rows
            and pending[1] == sign
        ):
            backend._broadcast(
                ("apply_reduced", self.namespace, self.aux.table, sign)
            )
            return
        if self.routing.mode == "partition":
            parts = partition_rows(
                base_rows, self.routing.base_indexes, backend.n_shards
            )
            backend._scatter(
                [
                    ("apply", self.namespace, self.aux.table, rows, sign)
                    for rows in parts
                ]
            )
        else:
            backend._broadcast(
                ("apply", self.namespace, self.aux.table, list(base_rows), sign)
            )

    def begin_undo(self, log: UndoLog) -> None:
        log.record(self._drop_caches)

    def end_undo(self) -> None:
        pass

    def key_values(self, column: str):
        cached = self._key_cache.get(column)
        if cached is None:
            message = ("key_values", self.namespace, self.aux.table, column)
            if self.routing.mode == "partition":
                cached = set()
                for part in self._backend._broadcast(message):
                    cached |= part
            else:
                cached = self._backend._first(message)
            self._key_cache[column] = cached
        return cached

    def rows_matching(self, column: str, values: set) -> list[tuple]:
        message = (
            "rows_matching",
            self.namespace,
            self.aux.table,
            column,
            set(values),
        )
        if self.routing.mode == "partition":
            return [
                row
                for part in self._backend._broadcast(message)
                for row in part
            ]
        return self._backend._first(message)

    def size_bytes(self) -> int:
        return self.relation().size_bytes()

    def __len__(self) -> int:
        message = ("len", self.namespace, self.aux.table)
        if self.routing.mode == "partition":
            return sum(self._backend._broadcast(message))
        return self._backend._first(message)


# ----------------------------------------------------------------------
# The backend.
# ----------------------------------------------------------------------


class ShardedBackend(Backend):
    """N-way sharded composition of the in-memory backend.

    ``parallel=False`` (serial) loops over per-shard materializations
    in-process; ``parallel=True`` drives N persistent worker processes.
    Results are row-multiset-identical to :class:`MemoryBackend` either
    way — the differential suite in ``tests/test_backends_sharded.py``
    pins that down.
    """

    name = "sharded"

    def __init__(self, n_shards: int = 2, parallel: bool = False):
        if n_shards < 1:
            raise BackendError("sharded backend needs at least 1 shard")
        self.n_shards = n_shards
        self.parallel = parallel
        self._routings: dict[str, ViewRouting] = {}
        self._combiners: dict[str, dict] = {}
        self._registry = MetricsRegistry()
        self._registry.gauge(SHARD_COUNT_GAUGE).set(n_shards)
        self._routed = self._registry.counter_group(SHARD_ROUTED_ROWS, "shard")
        self._compute = self._registry.counter_group(
            SHARD_COMPUTE_SECONDS, "shard"
        )
        self._replicated = self._registry.counter(SHARD_REPLICATED_SECONDS)
        self._workers: list[_Worker] = []
        self._open_tokens: list[int] = []
        self._txn_token = 0
        self._closed = False
        if parallel:
            self._start_workers()

    # -- view preparation ------------------------------------------------

    def prepare_view(
        self,
        view,
        database,
        graph,
        aux_set,
        namespace: str = "",
        append_only: bool = False,
    ) -> None:
        namespace = namespace or view.name
        routing = derive_routing(view, graph, aux_set, namespace)
        self._routings[namespace] = routing
        self._combiners[namespace] = _extremum_combiners(view)
        if self.parallel:
            payload = (view.to_sql(), _catalog_spec(database), append_only)
            self._broadcast(("prepare_view", namespace, payload))

    def make_materialization(self, aux, namespace="", **_ignored):
        routing = self._routings.get(namespace)
        if routing is None:
            raise BackendError(
                f"sharded backend has no routing for namespace {namespace!r} "
                "(prepare_view was not called)"
            )
        table_routing = routing.tables.get(aux.table) or TableRouting(
            aux.table, "replicate", (), ()
        )
        if self.parallel:
            return _ParallelShardedMaterialization(
                self, aux, namespace, table_routing
            )
        if table_routing.mode == "partition":
            return _SerialPartitionedMaterialization(
                aux, namespace, self, table_routing
            )
        from repro.core.maintenance import make_materialization

        materialization = make_materialization(aux)
        # One replica shared by the maintainer and every shard context
        # (serial shards run in-process, so replication is free).
        materialization.namespace = namespace
        return materialization

    # -- plan execution --------------------------------------------------

    def run_plan(self, node, ctx: ExecutionContext):
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
        if shared is not None and share_key is not None and share_key in shared:
            cached = shared[share_key]
            ctx.count("plan_shared_hits")
            node.stats.record_reuse()
            if ctx.trace is not None:
                span = ctx.trace.instant(
                    node.label, kind="plan", cache_hit=True, cache="shared"
                )
                span.rows_out = _result_size(cached)
            memo[key] = cached
            return cached
        if ctx.trace is None:
            result = self._run_stage(node, ctx)
        else:
            with ctx.trace.span(node.label, kind="plan") as span:
                result = self._run_stage(node, ctx)
                span.rows_out = _result_size(result)
        memo[key] = result
        if shared is not None and share_key is not None:
            shared[share_key] = result
        return result

    def _run_stage(self, node, ctx):
        if not self.parallel:
            return self._run_serial_stage(node, ctx)
        # Workers time their own plan nodes; the parent records the
        # whole stage (pipe round-trips included) like the SQLite
        # backend records each generated statement.
        started = perf_counter()
        result = self._run_parallel_stage(node, ctx)
        elapsed = perf_counter() - started
        if ctx.perf is not None:
            ctx.perf.seconds[node._timer_key] += elapsed
        node.stats.record(_result_size(result), elapsed)
        return result

    def _stage_of(self, node) -> str:
        if isinstance(node, AccumulateNode):
            return "propagate"
        if isinstance(node, KeyProbeSemiJoinNode):
            return "reduce"
        return "local"

    def _delta_identity(self, node):
        for leaf in node.walk():
            if isinstance(leaf, DeltaScanNode):
                return leaf.table, leaf.sign
        raise BackendError(f"plan stage {node.label!r} scans no delta")

    def _namespace_of(self, ctx) -> str | None:
        if ctx.providers:
            for provider in ctx.providers.values():
                namespace = getattr(provider, "namespace", None)
                if namespace is not None:
                    return namespace
        return None

    def _table_routing(self, routing: ViewRouting, table: str) -> TableRouting:
        table_routing = routing.tables.get(table)
        if table_routing is None:
            table_routing = TableRouting(table, "replicate", (), ())
        return table_routing

    # -- serial stage execution ------------------------------------------

    def _run_serial_stage(self, node, ctx):
        namespace = self._namespace_of(ctx)
        if namespace is None:
            # No sharded providers to split across (a fully-eliminated
            # single-table view): the in-process run is already exact.
            return node.run(ctx)
        routing = self._routings[namespace]
        table, sign = self._delta_identity(node)
        table_routing = self._table_routing(routing, table)
        contexts = self._serial_contexts(ctx, table, sign, table_routing)
        if isinstance(node, AccumulateNode):
            merged: dict = {}
            combiners = self._combiners[namespace]
            for shard, shard_ctx in enumerate(contexts):
                started = perf_counter()
                with _shard_span(ctx.trace, shard):
                    contribution = node.run(shard_ctx)
                self._compute[str(shard)] += perf_counter() - started
                merge_contributions(merged, contribution, combiners)
            return merged
        if table_routing.mode == "replicate":
            # Every shard holds the full replicated delta; one run is
            # the whole answer (a union would multiply the rows).
            started = perf_counter()
            with _shard_span(ctx.trace, None):
                result = node.run(contexts[0])
            self._replicated.inc(perf_counter() - started)
            return result
        rows: list[tuple] = []
        for shard, shard_ctx in enumerate(contexts):
            started = perf_counter()
            with _shard_span(ctx.trace, shard):
                part = node.run(shard_ctx)
            self._compute[str(shard)] += perf_counter() - started
            rows.extend(part.rows)
        return Relation(ctx.delta(table, sign).schema, rows, validate=False)

    def _serial_contexts(self, ctx, table, sign, table_routing):
        marker = ("sharded-ctxs", table, sign)
        cached = ctx.memo.get(marker)
        if cached is not None:
            return cached
        delta = ctx.delta(table, sign)
        if table_routing.mode == "partition":
            parts = partition_rows(
                delta.rows, table_routing.base_indexes, self.n_shards
            )
            self._count_routed(parts)
            deltas = [
                Relation(delta.schema, rows, validate=False) for rows in parts
            ]
        else:
            deltas = [delta] * self.n_shards
        contexts = [
            ExecutionContext(
                providers=self._shard_providers(ctx, shard),
                perf=ctx.perf,
                deltas={(table, sign): deltas[shard]},
                trace=ctx.trace,
            )
            for shard in range(self.n_shards)
        ]
        ctx.memo[marker] = contexts
        return contexts

    def _shard_providers(self, ctx, shard: int) -> dict:
        providers = {}
        for table, materialization in ctx.providers.items():
            parts = getattr(materialization, "parts", None)
            providers[table] = parts[shard] if parts is not None else materialization
        return providers

    # -- parallel stage execution ----------------------------------------

    def _run_parallel_stage(self, node, ctx):
        namespace = self._namespace_of(ctx)
        if namespace is None:
            return node.run(ctx)
        routing = self._routings[namespace]
        table, sign = self._delta_identity(node)
        table_routing = self._table_routing(routing, table)
        marker = ("sharded-delta", table, sign)
        if marker not in ctx.memo:
            delta = ctx.delta(table, sign)
            if table_routing.mode == "partition":
                parts = partition_rows(
                    delta.rows, table_routing.base_indexes, self.n_shards
                )
                self._count_routed(parts)
                self._scatter(
                    [
                        ("delta", namespace, table, sign, rows)
                        for rows in parts
                    ]
                )
            else:
                self._broadcast(
                    ("delta", namespace, table, sign, list(delta.rows))
                )
            ctx.memo[marker] = True
        stage = self._stage_of(node)
        traced = ctx.trace is not None
        replies = self._broadcast(
            ("stage", namespace, table, sign, stage, traced)
        )
        results = [
            self._graft_reply(ctx, shard, reply)
            for shard, reply in enumerate(replies)
        ]
        if stage == "propagate":
            merged: dict = {}
            combiners = self._combiners[namespace]
            for __, payload in results:
                merge_contributions(merged, payload, combiners)
            return merged
        if table_routing.mode == "replicate":
            rows = results[0][1]
        else:
            rows = [row for __, payload in results for row in payload]
        relation = Relation(
            ctx.delta(table, sign).schema, rows, validate=False
        )
        if stage == "reduce" and ctx.providers:
            provider = ctx.providers.get(table)
            if isinstance(provider, _ParallelShardedMaterialization):
                provider._pending_reduced = (relation.rows, sign)
        return relation

    def _graft_reply(self, ctx, shard: int, reply):
        """Strip the span payload off one worker's stage reply, grafting
        it into the open trace (re-parented under the stage span,
        labeled with the shard)."""
        spans = reply[2] if len(reply) > 2 else None
        if spans and ctx.trace is not None:
            ctx.trace.graft(spans, shard=shard)
        return reply[0], reply[1]

    def execute_view_plan(self, plan, database):
        return plan.physical.run(ExecutionContext(resolver=database.relation))

    # -- transactions ----------------------------------------------------

    def begin_transaction(self, log) -> None:
        if not self.parallel:
            return
        self._txn_token += 1
        token = self._txn_token
        self._open_tokens.append(token)
        self._broadcast(("begin", token))
        log.record(lambda token=token: self._rollback_to(token))

    def _rollback_to(self, token: int) -> None:
        if token not in self._open_tokens:
            return  # scope already rolled back (or committed)
        del self._open_tokens[self._open_tokens.index(token):]
        self._broadcast(("rollback", token))

    def commit(self) -> None:
        if not self.parallel or not self._open_tokens:
            return
        self._open_tokens.clear()
        self._broadcast(("commit",))

    # -- worker plumbing -------------------------------------------------

    def _start_workers(self) -> None:
        context = _mp_context()
        for shard in range(self.n_shards):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(child_conn, shard, self.n_shards),
                daemon=True,
                name=f"repro-shard-{shard}",
            )
            process.start()
            child_conn.close()
            self._workers.append(_Worker(shard, process, parent_conn))

    def _send(self, worker: _Worker, message) -> None:
        worker.conn.send(message)
        worker.pending += 1
        self._registry.gauge(
            SHARD_QUEUE_DEPTH, shard=str(worker.shard)
        ).set(worker.pending)

    def _recv(self, worker: _Worker):
        try:
            reply = worker.conn.recv()
        except EOFError:
            if self.events is not None:
                self.events.error("shard.worker_died", shard=worker.shard)
            raise BackendError(
                f"shard worker {worker.shard} died unexpectedly"
            ) from None
        worker.pending -= 1
        self._registry.gauge(
            SHARD_QUEUE_DEPTH, shard=str(worker.shard)
        ).set(worker.pending)
        return reply

    def _collect(self, workers):
        # Always drain one reply per sent command — even after an error —
        # so the pipes stay in lockstep for the rollback that follows.
        error = None
        results = []
        for worker in workers:
            reply = self._recv(worker)
            if reply[0] == "error":
                if error is None:
                    error = reply[1]
            else:
                results.append(reply[1])
        if error is not None:
            raise error
        return results

    def _broadcast(self, message):
        for worker in self._workers:
            self._send(worker, message)
        return self._collect(self._workers)

    def _scatter(self, messages):
        paired = list(zip(self._workers, messages))
        for worker, message in paired:
            self._send(worker, message)
        return self._collect([worker for worker, __ in paired])

    def _first(self, message):
        worker = self._workers[0]
        self._send(worker, message)
        reply = self._recv(worker)
        if reply[0] == "error":
            raise reply[1]
        return reply[1]

    # -- observability ---------------------------------------------------

    def _count_routed(self, parts) -> None:
        routed = self._routed
        for shard, rows in enumerate(parts):
            if rows:
                routed[str(shard)] += len(rows)

    def metrics_registry(self):
        merged = MetricsRegistry()
        merged.merge(self._registry)
        if self.parallel and self._workers and not self._closed:
            for registry in self._broadcast(("metrics",)):
                merged.merge(registry)
        return merged

    def merge_runtime_stats(self, namespace: str, stats: dict) -> dict:
        """``explain --analyze`` support: in parallel mode the parent
        only observes stage roots (workers run the inner plan nodes),
        so fold every worker's per-node ActualStats into the payload —
        the report shows the whole fleet's observations, not shard 0's.
        Serial mode runs the parent's own plan nodes per shard and needs
        no merge."""
        if not self.parallel or not self._workers or self._closed:
            return stats
        for payload in self._broadcast(("runtime_stats", namespace)):
            for shape, records in payload.items():
                _merge_stat_records(stats.setdefault(shape, []), records)
        return stats

    def describe(self, namespace: str = "") -> str | None:
        mode = "parallel" if self.parallel else "serial"
        routing = self._routings.get(namespace)
        if routing is None:
            return f"backend: sharded — {self.n_shards} shards ({mode})"
        details = []
        root_routing = routing.tables.get(routing.root)
        if root_routing is not None and root_routing.mode == "partition":
            key = (
                ", ".join(root_routing.columns)
                if root_routing.columns
                else "whole delta row"
            )
            details.append(f"{routing.root} partitioned by ({key})")
        replicated = sorted(
            table
            for table, table_routing in routing.tables.items()
            if table_routing.mode == "replicate"
        )
        if replicated:
            details.append("replicated: " + ", ".join(replicated))
        return (
            f"backend: sharded — {self.n_shards} shards ({mode}); "
            + "; ".join(details)
        )

    def close(self) -> None:
        if self._closed or not self.parallel:
            self._closed = True
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.conn.send(("close",))
                worker.conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
            worker.conn.close()
            worker.process.join(timeout=5)
            if worker.process.is_alive():  # pragma: no cover - defensive
                worker.process.terminate()
        self._workers = []
