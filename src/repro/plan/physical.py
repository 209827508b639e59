"""Physical plan nodes: the single compiled executor.

Each node owns precompiled row machinery (predicates and extractors from
:mod:`repro.engine.compilecache`, the reconstructor's row programs) and
implements one ``execute`` step over already-computed child results.
:meth:`PhysicalNode.run` adds the cross-cutting behavior every node
gets for free:

* **memoization** — a node referenced by several parents (a restricted
  delta feeding both a semijoin chain and the propagation join) computes
  once per :class:`~repro.plan.executor.ExecutionContext`;
* **cross-view sharing** — nodes carrying a ``share_key`` (a structural
  logical-plan key) publish their result to the context's shared cache,
  so the maintainers of one warehouse transaction reuse each other's
  delta subplan results;
* **per-node timing** — with a perf sink attached, each node's own
  execution time accumulates under ``plan:<label>``, rendered after the
  standard maintenance phases;
* **runtime statistics** — every real execution (not memo/shared hits)
  folds into the node's persistent :class:`~repro.obs.stats.ActualStats`
  (executions, output cardinality, wall time), the observed-cardinality
  record behind ``explain --analyze`` and ``Warehouse.runtime_stats()``;
* **tracing** — when the context carries an active
  :class:`~repro.obs.trace.Trace`, the node opens a nested span with
  input/output row counts, index-probe deltas, and cache-hit flags
  (memo and cross-view shared-cache hits become zero-duration spans).

Timing is two inline ``perf_counter`` calls, deliberately *not*
``PerfStats.timer``: the fault-injection harness hooks ``timer`` to
define transaction phase boundaries, and plan nodes run strictly inside
those phases.
"""

from __future__ import annotations

from time import perf_counter

from repro.engine.expressions import Expression
from repro.engine.operators import (
    ProjectionItem,
    antijoin,
    equijoin,
    generalized_project,
    project,
    select,
    semijoin,
)
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.obs.stats import ActualStats
from repro.plan.executor import ExecutionContext
from repro.plan.logical import LogicalNode, _render_pairs

_MISSING = object()


def _result_size(result) -> int | None:
    """Output cardinality of a node result (rows of a relation, groups
    of an accumulator dict); None for unsized results."""
    try:
        return len(result)
    except TypeError:
        return None


def run_stage_root(node, ctx: ExecutionContext, execute):
    """The memoize/share/trace/time/ActualStats contract of
    :meth:`PhysicalNode.run`, factored out for backends that execute a
    whole stage subtree as *one* unit — the columnar backend's fused
    batch kernels — instead of interpreting node by node.

    ``execute(node, ctx)`` computes the stage result.  The stage root's
    ``plan:<label>`` timer and :class:`~repro.obs.stats.ActualStats`
    record the whole kernel; inner nodes of the fused subtree stay
    unrecorded.
    """
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
        cached = shared.get(share_key, _MISSING)
        if cached is not _MISSING:
            ctx.count("plan_shared_hits")
            node.stats.record_reuse()
            if ctx.trace is not None:
                span = ctx.trace.instant(
                    node.label, kind="plan", cache_hit=True, cache="shared"
                )
                span.rows_out = _result_size(cached)
            memo[key] = cached
            return cached
    perf = ctx.perf
    if ctx.trace is None:
        started = perf_counter()
        result = execute(node, ctx)
        elapsed = perf_counter() - started
    else:
        with ctx.trace.span(node.label, kind="plan") as span:
            probes_before = (
                perf.counters["index_probes"] if perf is not None else 0
            )
            started = perf_counter()
            result = execute(node, ctx)
            elapsed = perf_counter() - started
            if perf is not None:
                span.index_probes = (
                    perf.counters["index_probes"] - probes_before
                )
            span.rows_out = _result_size(result)
    if perf is not None:
        perf.seconds[node._timer_key] += elapsed
    node.stats.record(_result_size(result), elapsed)
    memo[key] = result
    if shared is not None and share_key is not None:
        shared[share_key] = result
    return result


class PhysicalNode:
    """Base physical operator: children plus one ``execute`` step."""

    __slots__ = (
        "children", "label", "logical", "annotations", "share_key",
        "stats", "estimated_rows", "_timer_key",
    )

    def __init__(
        self,
        children: tuple["PhysicalNode", ...] = (),
        label: str | None = None,
        logical: LogicalNode | None = None,
    ):
        self.children = children
        self.label = label if label is not None else self.describe()
        self.logical = logical
        self.annotations: list[str] = []
        self.share_key: LogicalNode | None = None
        self.stats = ActualStats()
        #: The maintenance planner's predicted output cardinality (None
        #: on evaluation plans); compared against :attr:`stats` after
        #: execution to drive adaptive re-planning.
        self.estimated_rows: float | None = None
        self._timer_key = "plan:" + self.label

    def describe(self) -> str:
        raise NotImplementedError

    def execute(self, ctx: ExecutionContext, inputs: list):
        raise NotImplementedError

    def run(self, ctx: ExecutionContext):
        """Evaluate this subtree under ``ctx`` (memoized, shared, timed,
        traced, and folded into the node's :class:`ActualStats`)."""
        memo = ctx.memo
        key = id(self)
        if key in memo:
            if ctx.trace is not None:
                ctx.trace.instant(
                    self.label, kind="plan", cache_hit=True, cache="memo"
                )
            return memo[key]
        shared = ctx.shared
        share_key = self.share_key
        if shared is not None and share_key is not None:
            cached = shared.get(share_key, _MISSING)
            if cached is not _MISSING:
                ctx.count("plan_shared_hits")
                self.stats.record_reuse()
                if ctx.trace is not None:
                    span = ctx.trace.instant(
                        self.label, kind="plan", cache_hit=True, cache="shared"
                    )
                    span.rows_out = _result_size(cached)
                memo[key] = cached
                return cached
        if ctx.trace is None:
            result = self._run_timed(ctx, None)
        else:
            with ctx.trace.span(self.label, kind="plan") as span:
                perf = ctx.perf
                probes_before = (
                    perf.counters["index_probes"] if perf is not None else 0
                )
                result = self._run_timed(ctx, span)
                if perf is not None:
                    span.index_probes = (
                        perf.counters["index_probes"] - probes_before
                    )
                span.rows_out = _result_size(result)
        memo[key] = result
        if shared is not None and share_key is not None:
            shared[share_key] = result
        return result

    def _run_timed(self, ctx: ExecutionContext, span):
        """Run children then execute, timing and recording this node."""
        inputs = [child.run(ctx) for child in self.children]
        if span is not None and inputs:
            sizes = [_result_size(value) for value in inputs]
            sized = [size for size in sizes if size is not None]
            if sized:
                span.rows_in = sum(sized)
        perf = ctx.perf
        started = perf_counter()
        result = self.execute(ctx, inputs)
        elapsed = perf_counter() - started
        if perf is not None:
            perf.seconds[self._timer_key] += elapsed
        self.stats.record(_result_size(result), elapsed)
        return result

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def render(self, annotator=None) -> str:
        """Indented tree with per-node annotations (``annotator`` may
        contribute extra notes, e.g. cross-view sharing marks)."""
        lines: list[str] = []

        def emit(node: "PhysicalNode", depth: int) -> None:
            notes = list(node.annotations)
            if annotator is not None:
                extra = annotator(node)
                if extra:
                    notes.append(extra)
            suffix = f"  [{'; '.join(notes)}]" if notes else ""
            lines.append("  " * depth + node.describe() + suffix)
            for child in node.children:
                emit(child, depth + 1)

        emit(self, 0)
        return "\n".join(lines)

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.render()


class ScanNode(PhysicalNode):
    """A named relation from the context's bindings/resolver."""

    __slots__ = ("name",)

    def __init__(self, name: str, logical: LogicalNode | None = None):
        self.name = name
        super().__init__((), f"scan:{name}", logical)

    def describe(self) -> str:
        return f"scan[{self.name}]"

    def execute(self, ctx: ExecutionContext, inputs: list) -> Relation:
        return ctx.relation(self.name)


class AuxScanNode(PhysicalNode):
    """The full current contents of one auxiliary materialization."""

    __slots__ = ("table",)

    def __init__(self, table: str, logical: LogicalNode | None = None):
        self.table = table
        super().__init__((), f"aux-scan:{table}", logical)

    def describe(self) -> str:
        return f"aux-scan[{self.table}]"

    def execute(self, ctx: ExecutionContext, inputs: list) -> Relation:
        return ctx.provider(self.table).relation()


class DeltaScanNode(PhysicalNode):
    """One signed delta of the current transaction."""

    __slots__ = ("table", "sign")

    def __init__(self, table: str, sign: int, logical: LogicalNode | None = None):
        self.table = table
        self.sign = sign
        mark = "+" if sign > 0 else "-"
        super().__init__((), f"Δscan:{mark}{table}", logical)

    def describe(self) -> str:
        mark = "+" if self.sign > 0 else "-"
        return f"Δscan[{mark}{self.table}]"

    def execute(self, ctx: ExecutionContext, inputs: list) -> Relation:
        return ctx.delta(self.table, self.sign)


class FilterNode(PhysicalNode):
    """``σ`` via the shared compile cache."""

    __slots__ = ("condition",)

    def __init__(
        self,
        child: PhysicalNode,
        condition: Expression,
        logical: LogicalNode | None = None,
    ):
        self.condition = condition
        super().__init__((child,), "filter", logical)

    def describe(self) -> str:
        return f"σ[{self.condition.to_sql()}]"

    def execute(self, ctx: ExecutionContext, inputs: list) -> Relation:
        return select(inputs[0], self.condition)


class ProjectNode(PhysicalNode):
    """``π`` via the shared extractor cache."""

    __slots__ = ("references", "distinct")

    def __init__(
        self,
        child: PhysicalNode,
        references: tuple[str, ...],
        distinct: bool = False,
        logical: LogicalNode | None = None,
    ):
        self.references = references
        self.distinct = distinct
        super().__init__((child,), "project", logical)

    def describe(self) -> str:
        mark = " distinct" if self.distinct else ""
        return f"π[{', '.join(self.references)}]{mark}"

    def execute(self, ctx: ExecutionContext, inputs: list) -> Relation:
        return project(inputs[0], self.references, self.distinct)


class GeneralizedProjectNode(PhysicalNode):
    """``Π`` — group-by plus aggregates."""

    __slots__ = ("items", "qualifier")

    def __init__(
        self,
        child: PhysicalNode,
        items: tuple[ProjectionItem, ...],
        qualifier: str | None = None,
        logical: LogicalNode | None = None,
    ):
        self.items = items
        self.qualifier = qualifier
        super().__init__((child,), "gproject", logical)

    def describe(self) -> str:
        return f"Π[{', '.join(item.to_sql() for item in self.items)}]"

    def execute(self, ctx: ExecutionContext, inputs: list) -> Relation:
        return generalized_project(inputs[0], self.items, self.qualifier)


class HashJoinNode(PhysicalNode):
    """Build-and-probe equijoin (cross product when ``pairs`` is empty)."""

    __slots__ = ("pairs",)

    def __init__(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        pairs: tuple[tuple[str, str], ...],
        logical: LogicalNode | None = None,
    ):
        self.pairs = pairs
        super().__init__((left, right), "hash-join", logical)

    def describe(self) -> str:
        if not self.pairs:
            return "cross-join"
        return f"hash-join[{_render_pairs(self.pairs)}]"

    def execute(self, ctx: ExecutionContext, inputs: list) -> Relation:
        return equijoin(inputs[0], inputs[1], self.pairs)


class IndexJoinNode(PhysicalNode):
    """Equijoin probing a maintained :class:`RowIndex` on the right side
    (the build phase is skipped entirely)."""

    __slots__ = ("table", "pairs", "right_refs")

    def __init__(
        self,
        left: PhysicalNode,
        table: str,
        pairs: tuple[tuple[str, str], ...],
        right_refs: tuple[str, ...],
        logical: LogicalNode | None = None,
    ):
        self.table = table
        self.pairs = pairs
        self.right_refs = right_refs
        super().__init__((left,), f"index-join:{table}", logical)

    def describe(self) -> str:
        return f"index-join[{self.table}: {_render_pairs(self.pairs)}]"

    def execute(self, ctx: ExecutionContext, inputs: list) -> Relation:
        right = ctx.provider(self.table).relation()
        index = right.index_on(*self.right_refs)
        return equijoin(inputs[0], right, self.pairs, right_index=index)


class HashSemiJoinNode(PhysicalNode):
    """``⋉`` over two computed inputs."""

    __slots__ = ("pairs",)

    def __init__(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        pairs: tuple[tuple[str, str], ...],
        logical: LogicalNode | None = None,
    ):
        self.pairs = pairs
        super().__init__((left, right), "semijoin", logical)

    def describe(self) -> str:
        return f"semijoin[{_render_pairs(self.pairs)}]"

    def execute(self, ctx: ExecutionContext, inputs: list) -> Relation:
        return semijoin(inputs[0], inputs[1], self.pairs)


class HashAntiJoinNode(PhysicalNode):
    """``▷`` over two computed inputs."""

    __slots__ = ("pairs",)

    def __init__(
        self,
        left: PhysicalNode,
        right: PhysicalNode,
        pairs: tuple[tuple[str, str], ...],
        logical: LogicalNode | None = None,
    ):
        self.pairs = pairs
        super().__init__((left, right), "antijoin", logical)

    def describe(self) -> str:
        return f"antijoin[{_render_pairs(self.pairs)}]"

    def execute(self, ctx: ExecutionContext, inputs: list) -> Relation:
        return antijoin(inputs[0], inputs[1], self.pairs)


class KeyProbeSemiJoinNode(PhysicalNode):
    """The paper's join reduction: semijoin a delta against the key set
    of a dependency's auxiliary view.

    The key set comes from the materialization's ``key_values`` view —
    a live, incrementally-maintained hash-index view (O(1) probes, no
    rebuild).

    ``probe_direction`` is the cost planner's knob: ``"delta"`` (the
    default) probes the key set once per delta row; ``"keys"`` — chosen
    when the dependency's key population is estimated to be much smaller
    than the delta — first intersects the key set with the delta's
    distinct foreign-key values and then filters through the (smaller)
    intersection.  Both directions emit exactly the surviving delta rows
    in delta order, so the choice is invisible to results.
    """

    __slots__ = ("dep_table", "dep_key", "fk_index", "probe_direction")

    def __init__(
        self,
        child: PhysicalNode,
        dep_table: str,
        dep_key: str,
        fk_index: int,
        logical: LogicalNode | None = None,
    ):
        self.dep_table = dep_table
        self.dep_key = dep_key
        self.fk_index = fk_index
        self.probe_direction = "delta"
        super().__init__((child,), f"key-probe:{dep_table}", logical)

    def describe(self) -> str:
        return f"key-probe-semijoin[{self.dep_key} of X_{self.dep_table}]"

    def execute(self, ctx: ExecutionContext, inputs: list) -> Relation:
        relation = inputs[0]
        keys = ctx.provider(self.dep_table).key_values(self.dep_key)
        fk = self.fk_index
        if self.probe_direction == "keys":
            # Key-side probing: intersect the (small) key set with the
            # delta's fk values, then filter — identical output and
            # order, fewer hash probes when |keys| << |delta|.
            fk_values = {row[fk] for row in relation.rows}
            hits = {key for key in keys if key in fk_values}
            rows = [row for row in relation.rows if row[fk] in hits]
        else:
            rows = [row for row in relation.rows if row[fk] in keys]
        return Relation(relation.schema, rows, validate=False)


class NeighborRestrictNode(PhysicalNode):
    """Restrict one auxiliary view to the rows that can join the input.

    Collects the input's values of one join column and probes the
    target materialization's hash index (``rows_matching``) — one hop of
    the maintenance planner's join-tree restriction walk.  Each distinct
    probed value counts as one ``index_probes``.
    """

    __slots__ = ("table", "local_index", "far_ref", "schema")

    def __init__(
        self,
        child: PhysicalNode,
        table: str,
        local_index: int,
        far_ref: str,
        schema: Schema,
        logical: LogicalNode | None = None,
    ):
        self.table = table
        self.local_index = local_index
        self.far_ref = far_ref
        self.schema = schema
        super().__init__((child,), f"restrict:{self.table}", logical)

    def describe(self) -> str:
        return f"restrict[{self.table} by {self.far_ref}]"

    def execute(self, ctx: ExecutionContext, inputs: list) -> Relation:
        local = self.local_index
        values = {row[local] for row in inputs[0].rows}
        matched = ctx.provider(self.table).rows_matching(self.far_ref, values)
        ctx.count("index_probes", len(values))
        return Relation(self.schema, matched, validate=False)


class AccumulateNode(PhysicalNode):
    """Fold joined rows into per-group :class:`GroupAccumulator`\\ s via
    the reconstructor's compiled row program (returns a dict, not a
    relation — the maintainer merges it into ``V``'s group states)."""

    __slots__ = ("reconstructor",)

    def __init__(
        self,
        child: PhysicalNode,
        reconstructor,  # repro.core.rewrite.Reconstructor (annotation-only cycle)
        logical: LogicalNode | None = None,
    ):
        self.reconstructor = reconstructor
        super().__init__((child,), "accumulate", logical)

    def describe(self) -> str:
        return "accumulate[group contributions]"

    def execute(self, ctx: ExecutionContext, inputs: list) -> dict:
        joined = inputs[0]
        if not joined:
            return {}
        program = self.reconstructor.compile_program(joined.schema)
        contributions: dict = {}
        self.reconstructor.run_program(program, joined.rows, contributions)
        return contributions
