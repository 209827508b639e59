"""The physical planner: canonical plans, rewrites, and lowering.

``canonical_view_plan`` expresses a GPSJ view exactly as Section 2.1
writes it — ``Π_A σ_S (R1 ⋈ R2 ⋈ ... ⋈ Rn)`` — as a logical tree.
``push_selections`` then moves each local conjunct of ``S`` onto its
base-table scan and ``prune_projections`` inserts duplicate-preserving
projections above each scan chain, keeping only join attributes and
attributes preserved in ``V``: the paper's local reduction, applied as
plan rewrites instead of hand-inlined loops.  ``lower`` turns the
rewritten logical tree into physical nodes for the shared executor.

Everything here is deterministic and order-preserving: the join tree
replicates the historical fixed-point join order (one shared
implementation now serves evaluation, reconstruction, and delta
propagation), filters commute, and bag projection keeps row order —
which is how plan-based evaluation stays bit-identical to the eager
operator loops it replaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

# NOTE: no imports from repro.catalog or repro.core here — those layers
# import this planner, and annotations are lazy (PEP 563), so the
# ViewDefinition/Database hints below stay strings.
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.obs.stats import collect_node_stats
from repro.plan.executor import ExecutionContext
from repro.plan.logical import (
    AntiJoin,
    DeltaScan,
    EquiJoin,
    GeneralizedProject,
    LogicalNode,
    PlanError,
    Project,
    Scan,
    Select,
    SemiJoin,
)
from repro.plan.physical import (
    DeltaScanNode,
    FilterNode,
    GeneralizedProjectNode,
    HashAntiJoinNode,
    HashJoinNode,
    HashSemiJoinNode,
    PhysicalNode,
    ProjectNode,
    ScanNode,
)


class JoinGraphDisconnected(PlanError):
    """The join fixed-point got stuck; ``remaining`` holds the
    unplaceable tables (callers translate to their domain error)."""

    def __init__(self, remaining: list[str]):
        super().__init__(f"join graph is disconnected at {remaining!r}")
        self.remaining = remaining


def join_pairs(
    joins: Sequence[JoinCondition], table: str, placed: set[str]
) -> list[tuple[str, str]] | None:
    """Join pairs (placed-side ref, new-side ref) connecting ``table``
    to the already-placed tables — the one shared implementation of the
    pairing rule that view evaluation, reconstruction, and delta
    propagation previously each hand-rolled."""
    pairs = []
    for join in joins:
        if join.left_table == table and join.right_table in placed:
            pairs.append(
                (
                    f"{join.right_table}.{join.right_attribute}",
                    f"{join.left_table}.{join.left_attribute}",
                )
            )
        elif join.right_table == table and join.left_table in placed:
            pairs.append(
                (
                    f"{join.left_table}.{join.left_attribute}",
                    f"{join.right_table}.{join.right_attribute}",
                )
            )
    return pairs or None


def join_order(
    tables: Sequence[str],
    joins: Sequence[JoinCondition],
    start: str | None = None,
    on_stuck: str = "raise",
) -> list[tuple[str, tuple[tuple[str, str], ...] | None]]:
    """The deterministic join fixed-point as a list of steps.

    The first step is ``(first_table, None)``; each later step is
    ``(table, pairs)`` with ``pairs == ()`` for a cross-product
    fallback (``on_stuck="cross"``, view-evaluation semantics).  With
    ``on_stuck="raise"`` a stuck fixed-point raises
    :class:`JoinGraphDisconnected` (reconstruction semantics).
    """
    remaining = list(tables)
    first = start if start is not None else remaining[0]
    remaining.remove(first)
    placed = {first}
    steps: list[tuple[str, tuple[tuple[str, str], ...] | None]] = [(first, None)]
    while remaining:
        progressed = False
        for table in list(remaining):
            pairs = join_pairs(joins, table, placed)
            if pairs is None:
                continue
            steps.append((table, tuple(pairs)))
            placed.add(table)
            remaining.remove(table)
            progressed = True
        if not progressed:
            if on_stuck == "cross":
                table = remaining.pop(0)
                steps.append((table, ()))
                placed.add(table)
            else:
                raise JoinGraphDisconnected(remaining)
    return steps


def join_physical(
    nodes: Mapping[str, PhysicalNode],
    steps: Sequence[tuple[str, tuple[tuple[str, str], ...] | None]],
) -> PhysicalNode:
    """Fold precomputed join steps over per-table physical nodes."""
    current = nodes[steps[0][0]]
    for table, pairs in steps[1:]:
        current = HashJoinNode(current, nodes[table], pairs or ())
    return current


# ----------------------------------------------------------------------
# Canonical logical plans and rewrites.
# ----------------------------------------------------------------------


def canonical_view_plan(view: ViewDefinition) -> LogicalNode:
    """``V = Π_A σ_S (R1 ⋈ ... ⋈ Rn)`` as an (unoptimized) logical tree."""
    steps = join_order(view.tables, view.joins, on_stuck="cross")
    node: LogicalNode = Scan(steps[0][0])
    for table, pairs in steps[1:]:
        node = EquiJoin(node, Scan(table), pairs or ())
    for condition in view.selection:
        node = Select(node, condition)
    node = GeneralizedProject(node, view.projection, view.name)
    if view.having is not None:
        node = Select(node, view.having)
    return node


def _pushable(node: LogicalNode, target: str) -> bool:
    """Whether a selection on ``target`` can sink into this subtree
    (reaches the target's scan without crossing a projection barrier)."""
    if isinstance(node, Scan):
        return node.source == target
    if isinstance(node, DeltaScan):
        return node.table == target
    if isinstance(node, Select):
        return _pushable(node.child, target)
    if isinstance(node, EquiJoin):
        return _pushable(node.left, target) or _pushable(node.right, target)
    if isinstance(node, (SemiJoin, AntiJoin)):
        return _pushable(node.left, target)  # the right side is consumed
    return False  # Project / GeneralizedProject change the namespace


def push_selections(
    node: LogicalNode,
) -> tuple[LogicalNode, list[tuple[object, str]]]:
    """Sink single-table selections onto their scans.

    Returns the rewritten plan plus the ``(condition, table)`` pairs
    that landed on a scan (for explain annotations).  Filters commute
    and preserve row order, so the rewrite is result-identical; the
    sunk conjuncts keep their original relative order per table, which
    matches the eager evaluator's sequential ``_reduced_table`` exactly.
    """
    pushed: list[tuple[object, str]] = []

    def wrap(n: LogicalNode, pending: list) -> LogicalNode:
        for condition, __ in pending:
            n = Select(n, condition)
        return n

    def rec(n: LogicalNode, pending: list) -> LogicalNode:
        if isinstance(n, Select):
            qualifiers = n.condition.qualifiers()
            if len(qualifiers) == 1:
                target = next(iter(qualifiers))
                if _pushable(n.child, target):
                    return rec(n.child, [(n.condition, target)] + pending)
            return Select(rec(n.child, pending), n.condition)
        if isinstance(n, EquiJoin):
            left_p, right_p, rest = [], [], []
            for entry in pending:
                if _pushable(n.left, entry[1]):
                    left_p.append(entry)
                elif _pushable(n.right, entry[1]):
                    right_p.append(entry)
                else:
                    rest.append(entry)
            rebuilt = EquiJoin(rec(n.left, left_p), rec(n.right, right_p), n.pairs)
            return wrap(rebuilt, rest)
        if isinstance(n, (SemiJoin, AntiJoin)):
            left_p = [e for e in pending if _pushable(n.left, e[1])]
            rest = [e for e in pending if not _pushable(n.left, e[1])]
            rebuilt = type(n)(rec(n.left, left_p), rec(n.right, []), n.pairs)
            return wrap(rebuilt, rest)
        if isinstance(n, (Scan, DeltaScan)):
            source = n.source if isinstance(n, Scan) else n.table
            matched = [e for e in pending if e[1] == source]
            rest = [e for e in pending if e[1] != source]
            out: LogicalNode = n
            for condition, target in matched:
                out = Select(out, condition)
                pushed.append((condition, target))
            return wrap(out, rest)
        if isinstance(n, GeneralizedProject):
            rebuilt = GeneralizedProject(rec(n.child, []), n.items, n.qualifier)
            return wrap(rebuilt, pending)
        if isinstance(n, Project):
            rebuilt = Project(rec(n.child, []), n.references, n.distinct)
            return wrap(rebuilt, pending)
        return wrap(n, pending)

    return rec(node, []), pushed


def _is_scan_chain(node: LogicalNode) -> bool:
    """A ``Select*(Scan)`` chain — one base table plus local filters."""
    while isinstance(node, Select):
        node = node.child
    return isinstance(node, Scan)


def _chain_source(node: LogicalNode) -> str:
    while isinstance(node, Select):
        node = node.child
    return node.source


def prune_projections(
    node: LogicalNode, schemas: Mapping[str, Schema]
) -> tuple[LogicalNode, list[tuple[str, tuple[str, ...]]]]:
    """Insert bag projections above each scan chain, keeping only
    attributes the rest of the plan references — join attributes plus
    attributes preserved in ``V`` (the projection half of the paper's
    local reduction).  Local filter columns run *below* the inserted
    projection, so they need not survive it.

    Returns the rewritten plan plus ``(table, kept refs)`` pairs.
    """
    needed: set[str] = set()

    def collect(n: LogicalNode) -> None:
        if isinstance(n, (EquiJoin, SemiJoin, AntiJoin)):
            for left, right in n.pairs:
                needed.add(left)
                needed.add(right)
        elif isinstance(n, Select) and not _is_scan_chain(n):
            for column in n.condition.columns():
                needed.add(column.qualified_name)
        elif isinstance(n, GeneralizedProject):
            for item in n.items:
                column = getattr(item, "column", None)
                if column is not None:
                    needed.add(column.qualified_name)
        elif isinstance(n, Project):
            needed.update(n.references)
        for child in n.children():
            collect(child)

    collect(node)
    pruned: list[tuple[str, tuple[str, ...]]] = []

    def rewrite(n: LogicalNode) -> LogicalNode:
        if _is_scan_chain(n):
            schema = schemas.get(_chain_source(n))
            if schema is not None:
                kept = tuple(
                    a.qualified_name for a in schema if a.qualified_name in needed
                )
                if kept and len(kept) < len(schema):
                    pruned.append((_chain_source(n), kept))
                    return Project(n, kept, distinct=False)
            return n
        if isinstance(n, Select):
            return Select(rewrite(n.child), n.condition)
        if isinstance(n, EquiJoin):
            return EquiJoin(rewrite(n.left), rewrite(n.right), n.pairs)
        if isinstance(n, (SemiJoin, AntiJoin)):
            return type(n)(rewrite(n.left), rewrite(n.right), n.pairs)
        if isinstance(n, GeneralizedProject):
            return GeneralizedProject(rewrite(n.child), n.items, n.qualifier)
        if isinstance(n, Project):
            return Project(rewrite(n.child), n.references, n.distinct)
        return n

    return rewrite(node), pruned


# ----------------------------------------------------------------------
# Lowering.
# ----------------------------------------------------------------------


def lower(node: LogicalNode) -> PhysicalNode:
    """Structural logical-to-physical lowering (hash implementations).

    Maintenance-specific physical choices — key-probe semijoins,
    restriction chains, index joins — are made by the maintenance
    planner (:mod:`repro.plan.maintenance`), which builds physical trees
    directly from schema knowledge and live statistics.
    """
    if isinstance(node, Scan):
        return ScanNode(node.source, node)
    if isinstance(node, DeltaScan):
        return DeltaScanNode(node.table, node.sign, node)
    if isinstance(node, Select):
        return FilterNode(lower(node.child), node.condition, node)
    if isinstance(node, Project):
        return ProjectNode(lower(node.child), node.references, node.distinct, node)
    if isinstance(node, GeneralizedProject):
        return GeneralizedProjectNode(lower(node.child), node.items, node.qualifier, node)
    if isinstance(node, EquiJoin):
        return HashJoinNode(lower(node.left), lower(node.right), node.pairs, node)
    if isinstance(node, SemiJoin):
        return HashSemiJoinNode(lower(node.left), lower(node.right), node.pairs, node)
    if isinstance(node, AntiJoin):
        return HashAntiJoinNode(lower(node.left), lower(node.right), node.pairs, node)
    raise PlanError(f"cannot lower {type(node).__name__}")


# ----------------------------------------------------------------------
# View evaluation plans.
# ----------------------------------------------------------------------


@dataclass
class ViewPlan:
    """A fully planned view evaluation: logical, optimized, physical."""

    view: ViewDefinition
    logical: LogicalNode
    optimized: LogicalNode
    physical: PhysicalNode
    pushed: list = field(default_factory=list)
    pruned: list = field(default_factory=list)

    def runtime_stats(self) -> list[dict]:
        """Observed per-node cardinalities/timings accumulated across
        every execution of this (cached) plan — evaluation plans persist
        in the view-plan cache, so stats survive across calls."""
        return collect_node_stats(self.physical)


_VIEW_PLAN_CACHE: dict = {}
_VIEW_PLAN_CACHE_MAX = 128


def view_plan(view: ViewDefinition, database: Database) -> ViewPlan:
    """The (cached) evaluation plan for ``view`` over ``database``'s
    table schemas: canonical plan, selection pushdown, projection
    pruning, hash-join lowering."""
    schemas = {table: database.table(table).schema for table in view.tables}
    key = (view, tuple(sorted(schemas.items())))
    cached = _VIEW_PLAN_CACHE.get(key)
    if cached is not None:
        return cached
    logical = canonical_view_plan(view)
    optimized, pushed = push_selections(logical)
    optimized, pruned = prune_projections(optimized, schemas)
    physical = lower(optimized)
    _annotate_view_plan(physical, pushed, pruned)
    plan = ViewPlan(view, logical, optimized, physical, pushed, pruned)
    if len(_VIEW_PLAN_CACHE) >= _VIEW_PLAN_CACHE_MAX:
        _VIEW_PLAN_CACHE.clear()
    _VIEW_PLAN_CACHE[key] = plan
    return plan


def _annotate_view_plan(physical: PhysicalNode, pushed, pruned) -> None:
    pruned_tables = dict(pruned)
    for node in physical.walk():
        if isinstance(node, FilterNode):
            if any(condition == node.condition for condition, __ in pushed):
                node.annotations.append("selection pushed to base-table scan")
        elif isinstance(node, ProjectNode):
            if node.logical is not None and isinstance(node.logical, Project):
                source = (
                    _chain_source(node.logical.child)
                    if _is_scan_chain(node.logical.child)
                    else None
                )
                if source in pruned_tables:
                    node.annotations.append(
                        "projection pruned to join + preserved attributes"
                    )


def execute_view_plan(plan: ViewPlan, database: Database) -> Relation:
    """Run a view plan against the live base tables."""
    ctx = ExecutionContext(resolver=database.relation)
    return plan.physical.run(ctx)


def evaluate_view(view: ViewDefinition, database: Database) -> Relation:
    """Plan-based view evaluation (replaces the eager operator loop)."""
    return execute_view_plan(view_plan(view, database), database)


def clear_plan_cache() -> None:
    _VIEW_PLAN_CACHE.clear()
