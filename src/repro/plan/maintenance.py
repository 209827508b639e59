"""Delta-maintenance plans, compiled once per table and sign.

The :class:`MaintenancePlanner` compiles Section 3.2's maintenance
pipeline for one changed table into three physical plans executed per
transaction by :class:`~repro.core.maintenance.SelfMaintainer`:

``local``
    ``σ_local(Δ)`` — the table's local selection pushed onto the delta
    scan (the paper's local reduction).

``reduce``
    a chain of key-probe semijoins against the auxiliary views of the
    tables the changed table depends on (the paper's join reduction).

``propagate``
    the restricted join of the reduced delta with the other auxiliary
    views, folded into per-group contributions by the reconstructor's
    compiled row program.  The join tree is semijoin-restricted outward
    from the delta through the maintained hash indexes.  ``None`` when
    the root auxiliary view was eliminated and the delta is on a
    dimension (group rewrites handle those, Section 3.3).

Each pipeline is compiled once, from the view's structure alone, and
never re-planned: the semijoin reductions follow the extended join
graph's processing order, and the propagation join follows
:func:`~repro.plan.planner.join_order` anchored on the changed table.
Every auxiliary view reachable from the delta through stored join
columns is wrapped in a :class:`~repro.plan.physical.NeighborRestrictNode`,
which decides restrict-or-scan when it runs, from the exact sizes of
its input and of the materialization.  Delta-only subplans (the delta
scan and its local filter) carry share keys, letting one warehouse
transaction share their results across the maintainers of all
registered views.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.expressions import conjoin
from repro.engine.schema import Schema
from repro.obs.stats import collect_node_stats
from repro.plan.logical import DeltaScan, PlanError, Select
from repro.plan.physical import (
    AccumulateNode,
    AuxScanNode,
    DeltaScanNode,
    FilterNode,
    KeyProbeSemiJoinNode,
    NeighborRestrictNode,
    PhysicalNode,
)
from repro.plan.planner import join_order, join_physical


@dataclass
class DeltaPlans:
    """The compiled pipeline for one (table, sign) delta shape."""

    table: str
    sign: int
    local: PhysicalNode
    reduce: PhysicalNode
    propagate: PhysicalNode | None
    n_reductions: int

    def roots(self) -> tuple[PhysicalNode, ...]:
        """The pipeline's stage roots, outermost first.  ``reduce``
        contains ``local`` as a subtree and ``propagate`` (when present)
        contains ``reduce``, so the *first* root covers every node."""
        if self.propagate is not None:
            return (self.propagate, self.reduce, self.local)
        return (self.reduce, self.local)

    def walk(self):
        """Every unique physical node of the pipeline, pre-order from
        the outermost root."""
        seen: set[int] = set()
        for root in self.roots():
            for node in root.walk():
                if id(node) not in seen:
                    seen.add(id(node))
                    yield node

    def runtime_stats(self) -> list[dict]:
        """Observed per-node cardinality/timing records accumulated over
        every transaction this compiled pipeline has maintained (the
        ``explain --analyze`` payload)."""
        return collect_node_stats(self.roots()[0])

    def reset_runtime_stats(self) -> None:
        for node in self.walk():
            node.stats.reset()


class MaintenancePlanner:
    """Builds :class:`DeltaPlans` from view/derivation structure.

    ``restrict`` can be switched off (see
    ``SelfMaintainer.set_restriction``) to plan propagation joins over
    the *full* auxiliary views — the ablation baseline that used to be
    reached by monkeypatching the restriction helpers away.
    """

    def __init__(
        self,
        view,
        database,
        graph,
        aux_set,
        reconstructor,
        order: tuple[str, ...],
    ):
        self.view = view
        self.reconstructor = reconstructor
        self.restrict = True
        self._order = order
        self._eliminated = frozenset(aux_set.eliminated)
        self._root = graph.root
        self._schemas: dict[str, Schema] = {
            table: database.table(table).schema for table in view.tables
        }
        self._aux_schemas: dict[str, Schema] = {
            aux.table: aux.output_schema() for aux in aux_set
        }
        self._local_conditions = {
            table: view.local_conditions(table) for table in view.tables
        }
        self._reductions = {
            table: self._table_reductions(aux_set, table) for table in view.tables
        }
        self._neighbor_edges = self._build_neighbor_edges()

    def _table_reductions(
        self, aux_set, table: str
    ) -> tuple[tuple[int, str, str], ...]:
        """(fk index, dependency table, dependency key ref) triples,
        ordered by the extended join graph's processing order — the
        semijoin ordering the paper's reduction arguments assume."""
        schema = self._schemas[table]
        if table not in self._eliminated:
            joins = aux_set.for_table(table).reduced_by
        else:
            joins = self.view.joins_from(table)
        reductions = [
            (
                schema.index_of(join.left_attribute),
                join.right_table,
                f"{join.right_table}.{join.right_attribute}",
            )
            for join in joins
        ]
        position = {name: i for i, name in enumerate(self._order)}
        reductions.sort(key=lambda entry: position.get(entry[1], len(position)))
        return tuple(reductions)

    def _build_neighbor_edges(
        self,
    ) -> dict[str, tuple[tuple[str, str, str], ...]]:
        """For each view table, its join-tree neighbors as
        ``(neighbor, local column, neighbor column)`` — both directions
        of every join edge, one entry per neighbor pair.

        Restriction by one attribute pair of a multi-condition edge is
        conservative (a superset of the joinable rows survives), which
        is all soundness needs.
        """
        edges: dict[str, list[tuple[str, str, str]]] = {
            table: [] for table in self.view.tables
        }
        seen: set[tuple[str, str]] = set()
        for join in self.view.joins:
            pair = (join.left_table, join.right_table)
            if pair in seen:
                continue
            seen.add(pair)
            left = f"{join.left_table}.{join.left_attribute}"
            right = f"{join.right_table}.{join.right_attribute}"
            edges[join.left_table].append((join.right_table, left, right))
            edges[join.right_table].append((join.left_table, right, left))
        return {table: tuple(pairs) for table, pairs in edges.items()}

    # ------------------------------------------------------------------
    # Plan construction.
    # ------------------------------------------------------------------

    def build(self, table: str, sign: int) -> DeltaPlans:
        local = self._build_local(table, sign)
        reduce_node = self._build_reduce(table, local)
        skip_view = self._root in self._eliminated and table != self._root
        propagate = None
        if not skip_view:
            propagate = self._build_propagate(table, reduce_node)
        return DeltaPlans(
            table, sign, local, reduce_node, propagate,
            len(self._reductions[table]),
        )

    def _build_local(self, table: str, sign: int) -> PhysicalNode:
        delta_logical = DeltaScan(table, sign)
        node: PhysicalNode = DeltaScanNode(table, sign, delta_logical)
        node.share_key = delta_logical
        conditions = self._local_conditions[table]
        if conditions:
            condition = conjoin(conditions)
            logical = Select(delta_logical, condition)
            filtered = FilterNode(node, condition, logical)
            filtered.share_key = logical
            filtered.annotations.append(
                "selection pushed to the delta (local reduction)"
            )
            node = filtered
        return node

    def _build_reduce(self, table: str, local: PhysicalNode) -> PhysicalNode:
        node = local
        for fk_index, dep_table, dep_key in self._reductions[table]:
            node = KeyProbeSemiJoinNode(node, dep_table, dep_key, fk_index)
            node.annotations.append(
                f"index-backed join reduction: probes the maintained "
                f"key index of X_{dep_table}"
            )
        return node

    def _build_propagate(self, table: str, reduce_node: PhysicalNode) -> PhysicalNode:
        nodes: dict[str, PhysicalNode] = {table: reduce_node}
        if self.restrict:
            self._restrict_neighbors(table, nodes)
        for other in self.view.tables:
            if other not in nodes and other in self._aux_schemas:
                nodes[other] = AuxScanNode(other)
        missing = [t for t in self.view.tables if t not in nodes]
        if missing:
            raise PlanError(f"cannot join: no relation supplied for {missing!r}")
        steps = join_order(self.view.tables, self.view.joins, start=table)
        return AccumulateNode(join_physical(nodes, steps), self.reconstructor)

    def _restrict_neighbors(
        self, table: str, nodes: dict[str, PhysicalNode]
    ) -> None:
        """The join-neighbor restriction walk: outward from the delta,
        every auxiliary view reachable through stored join columns gets
        a :class:`NeighborRestrictNode` fed by the node it joins to.
        Whether a node restricts or passes its view through whole is
        decided at execution, from exact sizes."""
        frontier: list[tuple[str, Schema]] = [(table, self._schemas[table])]
        visited = {table}
        while frontier:
            current, schema = frontier.pop()
            for neighbor, local_col, far_col in self._neighbor_edges[current]:
                if neighbor in visited:
                    continue
                aux_schema = self._aux_schemas.get(neighbor)
                if aux_schema is None:
                    continue  # eliminated: nothing materialized to restrict
                if not schema.has(local_col) or not aux_schema.has(far_col):
                    continue  # join column not stored: leave neighbor full
                node = NeighborRestrictNode(
                    nodes[current],
                    neighbor,
                    schema.index_of(local_col),
                    far_col,
                    aux_schema,
                )
                node.annotations.append(
                    "index-backed semijoin restriction via the maintained "
                    "hash index; full view when the input is no smaller"
                )
                nodes[neighbor] = node
                visited.add(neighbor)
                frontier.append((neighbor, aux_schema))
