"""Cost-chosen delta-maintenance plans (one per table and sign).

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

Structural decisions are taken per compile from a
:class:`~repro.plan.cost.StatsCatalog` snapshot, in the style of
Mistry et al. (cs/0003006): semijoin reductions are ordered
most-selective-first (ties keep the extended join graph's processing
order), probe direction flips when the dependency's key population is
much smaller than the expected delta, per-neighbor restriction is
skipped when the delta's estimated reach already covers the auxiliary
view, and the propagation join order is cost-greedy.  Every choice
only reorders bag-order-insensitive work; estimates are stamped on the
stage roots (``estimated_rows``) so the maintainer's feedback loop can
compare them with observations and trigger a re-plan.  Delta-only
subplans (the delta scan and its local filter) carry share keys,
letting one warehouse transaction share their results across the
maintainers of all registered views.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.expressions import conjoin
from repro.engine.schema import Schema
from repro.obs.stats import collect_node_stats
from repro.plan.cost import DEFAULT_DELTA_ROWS, StatsCatalog
from repro.plan.logical import DeltaScan, PlanError, Select
from repro.plan.physical import (
    AccumulateNode,
    AuxScanNode,
    DeltaScanNode,
    FilterNode,
    HashJoinNode,
    KeyProbeSemiJoinNode,
    NeighborRestrictNode,
    PhysicalNode,
)
from repro.plan.planner import cost_join_order, join_physical


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

    def stage_estimates(self) -> dict:
        """The planner's per-stage cardinality estimates."""
        return {
            "local": self.local.estimated_rows,
            "reduce": self.reduce.estimated_rows,
            "propagate": (
                self.propagate.estimated_rows
                if self.propagate is not None
                else None
            ),
        }

    def reset_runtime_stats(self) -> None:
        for node in self.walk():
            node.stats.reset()


def transfer_runtime_stats(old: DeltaPlans, new: DeltaPlans) -> None:
    """Carry observed :class:`~repro.obs.stats.ActualStats` from a
    retired pipeline onto its replacement, so an adaptive re-plan does
    not zero the ``explain --analyze`` history.  Nodes match by operator
    label with occurrence counters — a re-plan may reorder or drop
    operators, in which case the unmatched observations are simply the
    retired plan's and stay retired."""
    index: dict[str, list[PhysicalNode]] = {}
    for node in old.walk():
        index.setdefault(node.label, []).append(node)
    used: dict[str, int] = {}
    for node in new.walk():
        position = used.get(node.label, 0)
        used[node.label] = position + 1
        matches = index.get(node.label, [])
        if position < len(matches):
            node.stats.merge(matches[position].stats)


class MaintenancePlanner:
    """Builds :class:`DeltaPlans` from view/derivation structure and the
    live statistics in ``catalog``.

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
        catalog: StatsCatalog,
    ):
        self.view = view
        self.reconstructor = reconstructor
        self.restrict = True
        self.catalog = catalog
        #: Observed per-shape cardinalities fed back by the maintainer's
        #: estimate checks: ``{(table, sign): {"local_rows", "reduce_rows"}}``.
        #: The next compile of that shape calibrates on them.
        self.feedback: dict[tuple[str, int], dict[str, float]] = {}
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
        hints = self.feedback.get((table, sign), {})
        est_local = max(hints.get("local_rows", DEFAULT_DELTA_ROWS), 1.0)
        est_reduce_hint = hints.get("reduce_rows")
        local = self._build_local(table, sign)
        local.estimated_rows = est_local
        reduce_node, n_reductions = self._build_reduce(
            table, local, est_local, est_reduce_hint
        )
        skip_view = self._root in self._eliminated and table != self._root
        propagate = None
        if not skip_view:
            propagate = self._build_propagate(table, reduce_node)
        return DeltaPlans(table, sign, local, reduce_node, propagate, n_reductions)

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

    def _build_reduce(
        self,
        table: str,
        local: PhysicalNode,
        est_local: float,
        est_reduce_hint: float | None = None,
    ) -> tuple[PhysicalNode, int]:
        node = local
        reductions = self._reductions[table]
        selectivity = {
            entry: self.catalog.semijoin_selectivity(entry[1], entry[2])
            for entry in reductions
        }
        # Most selective first; the sort is stable, so equal
        # selectivities (e.g. a fresh catalog, where every selectivity
        # is 1.0) keep the processing order.
        reductions = tuple(
            sorted(reductions, key=lambda entry: selectivity[entry])
        )
        estimate = est_local
        for entry in reductions:
            fk_index, dep_table, dep_key = entry
            probe = KeyProbeSemiJoinNode(node, dep_table, dep_key, fk_index)
            probe.annotations.append(
                f"index-backed join reduction: probes the maintained "
                f"key index of X_{dep_table}"
            )
            sel = selectivity[entry]
            key_count = self.catalog.distinct_count(dep_table, dep_key)
            if key_count and key_count * 4 < estimate:
                # Far fewer live keys than delta rows: iterate the key
                # set against a hash of the delta instead of probing the
                # index per delta row.  Output order is delta order
                # either way (bit-identical).
                probe.probe_direction = "keys"
                probe.annotations.append(
                    "probe direction: index keys -> delta "
                    "(cost: key set much smaller than delta)"
                )
            estimate = max(estimate * sel, 0.0)
            probe.estimated_rows = max(estimate, 1.0)
            probe.annotations.append(
                f"cost: selectivity {sel:.2f}, est~{max(estimate, 1.0):.1f} rows"
            )
            node = probe
        if est_reduce_hint is not None and node is not local:
            # Observed feedback for the whole chain beats the formula.
            node.estimated_rows = max(est_reduce_hint, 1.0)
        return node, len(reductions)

    def _build_propagate(self, table: str, reduce_node: PhysicalNode) -> PhysicalNode:
        nodes: dict[str, PhysicalNode] = {table: reduce_node}
        est_sizes = {table: max(reduce_node.estimated_rows or 1.0, 1.0)}
        skipped: set[str] = set()
        if self.restrict:
            skipped = self._restrict_by_cost(table, nodes, est_sizes)
        for other in self.view.tables:
            if other not in nodes and other in self._aux_schemas:
                scan = AuxScanNode(other)
                if other in skipped:
                    scan.annotations.append(
                        "restriction skipped by cost model "
                        "(delta reach covers the auxiliary view)"
                    )
                nodes[other] = scan
                est_sizes[other] = float(max(self.catalog.table_rows(other), 1))
        missing = [t for t in self.view.tables if t not in nodes]
        if missing:
            raise PlanError(f"cannot join: no relation supplied for {missing!r}")
        steps = cost_join_order(
            self.view.tables,
            self.view.joins,
            start=table,
            size_of=lambda t: est_sizes.get(t, 1.0),
            join_rows=lambda est, t, pairs: self._join_estimate(
                est, t, pairs, est_sizes
            ),
        )
        joined = self._join_with_estimates(table, nodes, steps, est_sizes)
        accumulate = AccumulateNode(joined, self.reconstructor)
        accumulate.estimated_rows = joined.estimated_rows
        return accumulate

    # ------------------------------------------------------------------
    # Cost helpers (estimates from the stats catalog).
    # ------------------------------------------------------------------

    def _restrict_by_cost(
        self,
        table: str,
        nodes: dict[str, PhysicalNode],
        est_sizes: dict[str, float],
    ) -> set[str]:
        """The join-neighbor restriction walk with a per-neighbor cost
        decision: restrict only when the delta's estimated reach is
        smaller than the auxiliary view itself (otherwise the semijoin
        cannot shrink the input and its probes are pure overhead).
        Skipping is always sound — the neighbor just stays full.
        Returns the set of neighbors skipped by the decision."""
        skipped: set[str] = set()
        frontier: list[tuple[str, Schema, float]] = [
            (table, self._schemas[table], est_sizes[table])
        ]
        visited = {table}
        while frontier:
            current, schema, est_in = frontier.pop()
            for neighbor, local_col, far_col in self._neighbor_edges[current]:
                if neighbor in visited:
                    continue
                aux_schema = self._aux_schemas.get(neighbor)
                if aux_schema is None:
                    continue  # eliminated: nothing materialized to restrict
                if not schema.has(local_col) or not aux_schema.has(far_col):
                    continue  # join column not stored: leave neighbor full
                aux_rows = float(max(self.catalog.table_rows(neighbor), 1))
                distinct = max(
                    self.catalog.distinct_count(neighbor, far_col), 1
                )
                est_matched = min(aux_rows, est_in * aux_rows / distinct)
                if est_in >= aux_rows:
                    visited.add(neighbor)
                    skipped.add(neighbor)
                    continue  # reach covers the aux view: skip, stay full
                node = NeighborRestrictNode(
                    nodes[current],
                    neighbor,
                    schema.index_of(local_col),
                    far_col,
                    aux_schema,
                )
                node.estimated_rows = max(est_matched, 1.0)
                node.annotations.append(
                    "index-backed semijoin restriction via the maintained "
                    "hash index"
                )
                node.annotations.append(
                    f"cost: est~{max(est_matched, 1.0):.1f} of "
                    f"{aux_rows:.0f} rows"
                )
                nodes[neighbor] = node
                est_sizes[neighbor] = max(est_matched, 1.0)
                visited.add(neighbor)
                frontier.append((neighbor, aux_schema, max(est_matched, 1.0)))
        return skipped

    def _distinct_estimate(self, table: str, ref: str, size: float) -> float:
        """Distinct values of ``ref`` within ``table``'s (possibly
        restricted) relation, capped by its estimated cardinality."""
        aux_schema = self._aux_schemas.get(table)
        if aux_schema is None or not aux_schema.has(ref):
            return 1.0
        distinct = max(self.catalog.distinct_count(table, ref), 1)
        return min(float(distinct), max(size, 1.0))

    def _join_estimate(
        self,
        estimate: float,
        table: str,
        pairs: tuple[tuple[str, str], ...],
        est_sizes: dict[str, float],
    ) -> float:
        """Uniform-distribution equijoin estimate for joining ``table``
        into an intermediate of ``estimate`` rows."""
        size = est_sizes.get(table, 1.0)
        denominator = 1.0
        for _placed_ref, new_ref in pairs:
            denominator = max(
                denominator, self._distinct_estimate(table, new_ref, size)
            )
        return estimate * size / denominator

    def _join_with_estimates(
        self,
        table: str,
        nodes: dict[str, PhysicalNode],
        steps,
        est_sizes: dict[str, float],
    ) -> PhysicalNode:
        """Fold the cost-chosen join steps, stamping each join node with
        the running cardinality estimate for explain and feedback."""
        running = max(est_sizes.get(table, 1.0), 1.0)

        def make_join(current, other, pairs):
            nonlocal running
            node = HashJoinNode(current, nodes[other], pairs)
            running = self._join_estimate(running, other, pairs, est_sizes)
            node.estimated_rows = max(running, 1.0)
            node.annotations.append(
                f"cost-chosen join order: est~{max(running, 1.0):.1f} rows"
            )
            return node

        return join_physical(nodes, steps, make_join)
