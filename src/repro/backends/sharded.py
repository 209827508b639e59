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

The shards run in-process, one after another: deterministic,
debuggable, and transparent to the
:class:`~repro.testing.faults.FaultInjector` harness (per-shard
materializations record into the same undo log the interpreter uses,
so a failure in any shard rolls every shard back).  This is the
routing-and-merge oracle a future per-core engine must match.

The deterministic partitioner is ``crc32(repr(key))`` — the builtin
``hash`` is salted per process, so it would not route the same row to
the same shard across runs or processes.

When the transaction is traced, every per-shard plan run is wrapped in
a ``shard:<k>`` span (a replicated stage's single run in a
``replicated`` span), with the inner plan-node spans nested inside, so
one traced apply renders a single connected tree.
"""

from __future__ import annotations

import zlib
from contextlib import contextmanager
from dataclasses import dataclass

from repro.backends.base import Backend, BackendError
from repro.engine.relation import Relation
from repro.engine.undolog import UndoLog
from repro.obs.metrics import MetricsRegistry
from repro.plan.executor import ExecutionContext
from repro.plan.physical import AccumulateNode, DeltaScanNode, _result_size

#: Metric names exported by the backend's registry.
SHARD_ROUTED_ROWS = "repro_shard_routed_rows_total"
SHARD_COUNT_GAUGE = "repro_shard_count"


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
    """Deterministic, run-to-run stable shard of a routing key."""
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
# The partitioned root materialization.
# ----------------------------------------------------------------------


class _PartitionedMaterialization:
    """The root auxiliary view as N per-shard core materializations.

    Shard contexts read the per-shard parts directly (``.parts``); the
    maintainer-facing surface (``relation``, ``key_values``, ...) serves
    merged views, concatenated lazily and cached until the next apply.
    """

    def __init__(self, aux, namespace, n_shards, routing):
        from repro.core.maintenance import make_materialization

        self.aux = aux
        self.schema = aux.output_schema()
        self.namespace = namespace
        self.routing = routing
        self.parts = [make_materialization(aux) for _ in range(n_shards)]
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
# The backend.
# ----------------------------------------------------------------------


class ShardedBackend(Backend):
    """N-way sharded composition of the in-memory backend.

    Loops over per-shard materializations in-process.  Results are
    row-multiset-identical to :class:`MemoryBackend` — the differential
    suite in ``tests/test_backends_sharded.py`` pins that down.
    """

    name = "sharded"

    def __init__(self, n_shards: int = 2):
        if n_shards < 1:
            raise BackendError("sharded backend needs at least 1 shard")
        self.n_shards = n_shards
        self._routings: dict[str, ViewRouting] = {}
        self._combiners: dict[str, dict] = {}
        self._registry = MetricsRegistry()
        self._registry.gauge(SHARD_COUNT_GAUGE).set(n_shards)
        self._routed = self._registry.counter_group(SHARD_ROUTED_ROWS, "shard")

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
        self._routings[namespace] = derive_routing(
            view, graph, aux_set, namespace
        )
        self._combiners[namespace] = _extremum_combiners(view)

    def make_materialization(self, aux, namespace="", **_ignored):
        routing = self._routings.get(namespace)
        if routing is None:
            raise BackendError(
                f"sharded backend has no routing for namespace {namespace!r} "
                "(prepare_view was not called)"
            )
        table_routing = self._table_routing(routing, aux.table)
        if table_routing.mode == "partition":
            return _PartitionedMaterialization(
                aux, namespace, self.n_shards, table_routing
            )
        from repro.core.maintenance import make_materialization

        materialization = make_materialization(aux)
        # One replica shared by the maintainer and every shard context
        # (the shards run in-process, so replication is free).
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

    def _run_stage(self, node, ctx):
        namespace = self._namespace_of(ctx)
        if namespace is None:
            # No sharded providers to split across (a fully-eliminated
            # single-table view): the in-process run is already exact.
            return node.run(ctx)
        routing = self._routings[namespace]
        table, sign = self._delta_identity(node)
        table_routing = self._table_routing(routing, table)
        contexts = self._shard_contexts(ctx, table, sign, table_routing)
        if isinstance(node, AccumulateNode):
            merged: dict = {}
            combiners = self._combiners[namespace]
            for shard, shard_ctx in enumerate(contexts):
                with _shard_span(ctx.trace, shard):
                    contribution = node.run(shard_ctx)
                merge_contributions(merged, contribution, combiners)
            return merged
        if table_routing.mode == "replicate":
            # Every shard holds the full replicated delta; one run is
            # the whole answer (a union would multiply the rows).
            with _shard_span(ctx.trace, None):
                return node.run(contexts[0])
        rows: list[tuple] = []
        for shard, shard_ctx in enumerate(contexts):
            with _shard_span(ctx.trace, shard):
                part = node.run(shard_ctx)
            rows.extend(part.rows)
        return Relation(ctx.delta(table, sign).schema, rows, validate=False)

    def _shard_contexts(self, ctx, table, sign, table_routing):
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

    def execute_view_plan(self, plan, database):
        return plan.physical.run(ExecutionContext(resolver=database.relation))

    # -- observability ---------------------------------------------------

    def _count_routed(self, parts) -> None:
        routed = self._routed
        for shard, rows in enumerate(parts):
            if rows:
                routed[str(shard)] += len(rows)

    def metrics_registry(self):
        merged = MetricsRegistry()
        merged.merge(self._registry)
        return merged

    def describe(self, namespace: str = "") -> str | None:
        routing = self._routings.get(namespace)
        if routing is None:
            return f"backend: sharded — {self.n_shards} shards"
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
            f"backend: sharded — {self.n_shards} shards; "
            + "; ".join(details)
        )
