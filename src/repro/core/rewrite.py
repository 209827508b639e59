"""Reconstructing ``V`` from its auxiliary views (Section 3.2).

Because the root's auxiliary view is duplicate-compressed, rebuilding
``V`` from ``X`` must account for multiplicities: ``COUNT(*)`` becomes
``SUM(cnt0)``, a folded ``SUM(a)`` becomes ``SUM(sum_a)``, and a CSMAS
over an attribute that is *not* maintained by an aggregate in ``X`` —
because it is pinned by a non-CSMAS or group-by use, or lives on a
non-root table — is computed as ``f(a * cnt0)``, exactly the paper's
``SUM(price*SaleCount)`` example.  MIN/MAX and DISTINCT aggregates
ignore duplicates and read raw attribute values directly.

The :class:`Reconstructor` compiles, for any join of auxiliary (or
delta) relations, a *row program*: per-row accessors for the group key,
the multiplicity, and each output aggregate's contribution.  Both full
reconstruction and the incremental maintainer's delta propagation run
the same program, so the two paths cannot drift apart.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from repro.catalog.database import Database
from repro.core.derivation import AuxiliaryViewSet
from repro.core.view import ViewDefinition
from repro.engine.aggregates import AggregateFunction
from repro.engine.operators import (
    AggregateItem,
    GroupByItem,
    projection_schema,
    select,
)
from repro.engine.relation import Relation
from repro.engine.rowindex import make_tuple_extractor
from repro.engine.schema import Schema
from repro.plan.executor import ExecutionContext
from repro.plan.physical import PhysicalNode, ScanNode
from repro.plan.planner import JoinGraphDisconnected, join_order, join_physical


class ReconstructionError(Exception):
    """Raised when ``V`` cannot be rebuilt from the supplied relations."""


class AggregateCategory(enum.Enum):
    """How one output aggregate is computed from joined detail rows."""

    COUNT = "count"          # sum of multiplicities
    SUM = "sum"              # folded sum or value * multiplicity
    AVG = "avg"              # SUM part / COUNT part
    EXTREMUM = "extremum"    # min/max of raw values (duplicates ignored)
    DISTINCT = "distinct"    # f over the set of raw values


def categorize(item: AggregateItem) -> AggregateCategory:
    """Map an output aggregate to its reconstruction category."""
    if item.func in (AggregateFunction.MIN, AggregateFunction.MAX):
        return AggregateCategory.EXTREMUM
    if item.distinct:
        return AggregateCategory.DISTINCT
    if item.func is AggregateFunction.COUNT:
        return AggregateCategory.COUNT
    if item.func is AggregateFunction.SUM:
        return AggregateCategory.SUM
    return AggregateCategory.AVG


@dataclass(slots=True)
class GroupAccumulator:
    """Running totals for one group of ``V`` during (re)construction."""

    multiplicity: int = 0
    sums: dict[int, float] | None = None
    extrema: dict[int, object] | None = None
    distincts: dict[int, set] | None = None

    def __post_init__(self) -> None:
        self.sums = {} if self.sums is None else self.sums
        self.extrema = {} if self.extrema is None else self.extrema
        self.distincts = {} if self.distincts is None else self.distincts


@dataclass(frozen=True)
class SymbolicProgram:
    """Schema-resolved column positions for one joined-relation shape.

    The *symbolic* form of the row program: which positions form the
    group key, where the root multiplicity lives (``None`` when raw
    detail rows count once), and how each output aggregate reads the
    joined row — as ``(slot, position, scale_by_multiplicity)`` for
    SUM/AVG contributions and ``(slot, category, position)`` for
    extremum/distinct raw values.  This is the single source of truth
    both executors share: :meth:`Reconstructor.compile_program` closes
    over it for the interpreter, and the columnar backend's fused fold
    kernel reads positions straight out of column stores.
    """

    key_positions: tuple[int, ...]
    count_position: int | None
    sum_items: tuple[tuple[int, int, bool], ...]
    raw_items: tuple[tuple[int, AggregateCategory, int], ...]

    @property
    def has_distinct(self) -> bool:
        return any(
            category is AggregateCategory.DISTINCT
            for __, category, __pos in self.raw_items
        )


@dataclass(frozen=True)
class RowProgram:
    """Compiled per-row accessors for one joined-relation schema.

    Run against rows via :meth:`Reconstructor.run_program`, which also
    supplies the min/max combiners for extremum items.
    """

    key: Callable[[tuple], tuple]
    multiplicity: Callable[[tuple], int]
    sum_contributions: tuple[tuple[int, Callable[[tuple], object]], ...]
    raw_values: tuple[tuple[int, AggregateCategory, Callable[[tuple], object]], ...]


class Reconstructor:
    """Rebuilds ``V`` (or pieces of it) from auxiliary/delta relations."""

    def __init__(self, view: ViewDefinition, aux_set: AuxiliaryViewSet, database: Database):
        self.view = view
        self.aux_set = aux_set
        base_schema = Schema(
            attribute
            for table in view.tables
            for attribute in database.table(table).schema
        )
        self.output_schema = projection_schema(
            view.projection, base_schema, qualifier=view.name
        )
        self._item_categories: dict[int, AggregateCategory] = {
            i: categorize(item)
            for i, item in enumerate(view.projection)
            if isinstance(item, AggregateItem)
        }
        self._group_slots = [
            i for i, item in enumerate(view.projection)
            if isinstance(item, GroupByItem)
        ]
        self._program_cache: dict[Schema, RowProgram] = {}
        self._symbolic_cache: dict[Schema, SymbolicProgram] = {}
        self._join_plans: dict[str | None, PhysicalNode] = {}

    @property
    def categories(self) -> Mapping[int, AggregateCategory]:
        return self._item_categories

    # ------------------------------------------------------------------
    # Joining.
    # ------------------------------------------------------------------

    def join_all(
        self,
        relations: Mapping[str, Relation],
        start: str | None = None,
    ) -> Relation:
        """Join one relation per view table along the view's join tree.

        ``relations`` may mix auxiliary views and raw delta relations —
        the only requirement is that join attributes carry their base
        names qualified by the base table, which both do.

        The hash-join tree is planned once per ``start`` table (the
        fixed-point join order is static) and executed against the
        supplied bindings; maintenance runs the same plan on every
        transaction.
        """
        missing = [t for t in self.view.tables if t not in relations]
        if missing:
            raise ReconstructionError(
                f"cannot join: no relation supplied for {missing!r}"
            )
        plan = self._join_plan(start)
        ctx = ExecutionContext(relations=relations)
        return plan.run(ctx)

    def _join_plan(self, start: str | None) -> PhysicalNode:
        cached = self._join_plans.get(start)
        if cached is not None:
            return cached
        try:
            steps = join_order(
                self.view.tables, self.view.joins, start=start, on_stuck="raise"
            )
        except JoinGraphDisconnected as exc:
            raise ReconstructionError(str(exc)) from None
        nodes = {table: ScanNode(table) for table in self.view.tables}
        plan = self._join_plans[start] = join_physical(nodes, steps)
        return plan

    # ------------------------------------------------------------------
    # Row programs.
    # ------------------------------------------------------------------

    def resolve_program(self, schema: Schema) -> SymbolicProgram:
        """Resolve the row program *symbolically* against ``schema``:
        pure column positions, no closures.  Cached per schema —
        maintenance resolves against the same handful of join shapes on
        every transaction, so the hot path pays attribute resolution
        once per shape, not once per delta.
        """
        cached = self._symbolic_cache.get(schema)
        if cached is not None:
            return cached
        key_positions = tuple(
            schema.index_of(
                self.view.projection[slot].column.name,
                self.view.projection[slot].column.qualifier,
            )
            for slot in self._group_slots
        )
        count_position = self._resolve_multiplicity(schema)

        sum_items: list[tuple[int, int, bool]] = []
        raw_items: list[tuple[int, AggregateCategory, int]] = []
        for index, item in enumerate(self.view.projection):
            if not isinstance(item, AggregateItem):
                continue
            category = self._item_categories[index]
            if category in (AggregateCategory.SUM, AggregateCategory.AVG):
                sum_items.append((index,) + self._resolve_sum(schema, item))
            elif category in (
                AggregateCategory.EXTREMUM, AggregateCategory.DISTINCT
            ):
                raw_items.append(
                    (index, category, self._resolve_raw(schema, item))
                )
        program = SymbolicProgram(
            key_positions=key_positions,
            count_position=count_position,
            sum_items=tuple(sum_items),
            raw_items=tuple(raw_items),
        )
        self._symbolic_cache[schema] = program
        return program

    def compile_program(self, schema: Schema) -> RowProgram:
        """Compile group-key/multiplicity/contribution accessors for rows
        of ``schema`` (a join of aux and/or delta relations) — the
        interpreter's closure form of :meth:`resolve_program`.
        """
        cached = self._program_cache.get(schema)
        if cached is not None:
            return cached
        symbolic = self.resolve_program(schema)
        key = make_tuple_extractor(symbolic.key_positions)
        if symbolic.count_position is None:
            multiplicity = lambda row: 1  # noqa: E731
        else:
            count_position = symbolic.count_position
            multiplicity = lambda row: row[count_position]  # noqa: E731

        def value_of(position: int) -> Callable[[tuple], object]:
            return lambda row: row[position]

        def scaled_by_count(position: int) -> Callable[[tuple], object]:
            return lambda row: row[position] * multiplicity(row)

        sum_contributions = tuple(
            (index, scaled_by_count(position) if scaled else value_of(position))
            for index, position, scaled in symbolic.sum_items
        )
        raw_values = tuple(
            (index, category, value_of(position))
            for index, category, position in symbolic.raw_items
        )
        program = RowProgram(
            key=key,
            multiplicity=multiplicity,
            sum_contributions=sum_contributions,
            raw_values=raw_values,
        )
        self._program_cache[schema] = program
        return program

    def combiner(self, index: int) -> Callable[[object, object], object]:
        """min/max combiner for an extremum output item."""
        item = self.view.projection[index]
        return min if item.func is AggregateFunction.MIN else max

    def _resolve_multiplicity(self, schema: Schema) -> int | None:
        """Rows carry the root COUNT(*) when the compressed root auxiliary
        view participates in the join; raw detail rows count once."""
        count_index: int | None = None
        for aux in self.aux_set:
            column = aux.count_column
            if column is not None and schema.has(column):
                if count_index is not None:
                    raise ReconstructionError(
                        "multiple compressed auxiliary views in one join"
                    )
                count_index = schema.index_of(column)
        return count_index

    def _resolve_sum(
        self, schema: Schema, item: AggregateItem
    ) -> tuple[int, bool]:
        """SUM/AVG contribution as ``(position, scale_by_multiplicity)``:
        the folded sum column when available in this schema, otherwise
        ``value * multiplicity`` (the f(a*cnt0) rule)."""
        column = item.column
        if schema.has(column.name, column.qualifier):
            return schema.index_of(column.name, column.qualifier), True
        folded = self._folded_column(column.qualifier, column.name)
        if folded is not None and schema.has(folded):
            return schema.index_of(folded), False
        raise ReconstructionError(
            f"{item.to_sql()} is computable neither from a raw column nor "
            "from a folded sum in this join"
        )

    def _resolve_raw(self, schema: Schema, item: AggregateItem) -> int:
        column = item.column
        if schema.has(column.name, column.qualifier):
            return schema.index_of(column.name, column.qualifier)
        if item.func in (AggregateFunction.MIN, AggregateFunction.MAX):
            # Append-only mode folds MIN/MAX per group; merging the
            # per-group extrema is exact because they are distributive.
            folded = self._folded_extremum_column(
                column.qualifier, column.name, item.func
            )
            if folded is not None and schema.has(folded):
                return schema.index_of(folded)
        raise ReconstructionError(
            f"{item.to_sql()} needs raw values of {column.qualified_name} "
            "which are not present in this join"
        )

    def _folded_extremum_column(
        self, table: str, attribute: str, func: AggregateFunction
    ) -> str | None:
        if not self.aux_set.has_view(table):
            return None
        return self.aux_set.for_table(table).extremum_column(attribute, func)

    def _folded_column(self, table: str, attribute: str) -> str | None:
        if not self.aux_set.has_view(table):
            return None
        return self.aux_set.for_table(table).sum_column(attribute)

    # ------------------------------------------------------------------
    # Accumulation and finalization.
    # ------------------------------------------------------------------

    def accumulate(
        self,
        relations: Mapping[str, Relation],
        group_filter: frozenset[tuple] | None = None,
    ) -> dict[tuple, GroupAccumulator]:
        """Join ``relations`` and fold every row into per-group accumulators.

        With a ``group_filter``, the filter is pushed down before the
        join: relations carrying group-by columns are restricted to the
        filtered values and the restriction propagates along the join
        conditions by semijoins, so recomputing a few dirty groups does
        not pay for a full join.
        """
        if group_filter is not None:
            relations = self._push_down_filter(relations, group_filter)
        start = min(relations, key=lambda table: len(relations[table]))
        joined = self.join_all(relations, start=start)
        program = self.compile_program(joined.schema)
        groups: dict[tuple, GroupAccumulator] = {}
        self.run_program(program, joined.rows, groups, group_filter)
        return groups

    def _push_down_filter(
        self,
        relations: Mapping[str, Relation],
        group_filter: frozenset[tuple],
    ) -> dict[str, Relation]:
        """Restrict relations carrying group-by columns to the filtered
        values; the join itself then propagates the restriction."""
        filtered = dict(relations)
        for position, slot in enumerate(self._group_slots):
            column = self.view.projection[slot].column
            table = column.qualifier
            if table not in filtered:
                continue
            allowed = {key[position] for key in group_filter}
            relation = filtered[table]
            index = relation.schema.index_of(column.name, column.qualifier)
            filtered[table] = Relation(
                relation.schema,
                [row for row in relation if row[index] in allowed],
                validate=False,
            )
        return filtered

    def run_program(
        self,
        program: RowProgram,
        rows: Iterable[tuple],
        groups: dict[tuple, GroupAccumulator],
        group_filter: frozenset[tuple] | None = None,
    ) -> None:
        combiners = {
            index: self.combiner(index)
            for index, category, __ in program.raw_values
            if category is AggregateCategory.EXTREMUM
        }
        for row in rows:
            key = program.key(row)
            if group_filter is not None and key not in group_filter:
                continue
            acc = groups.get(key)
            if acc is None:
                acc = groups[key] = GroupAccumulator()
            acc.multiplicity += program.multiplicity(row)
            for index, fn in program.sum_contributions:
                acc.sums[index] = acc.sums.get(index, 0) + fn(row)
            for index, category, fn in program.raw_values:
                value = fn(row)
                if category is AggregateCategory.EXTREMUM:
                    current = acc.extrema.get(index)
                    acc.extrema[index] = (
                        value if current is None
                        else combiners[index](current, value)
                    )
                else:
                    acc.distincts.setdefault(index, set()).add(value)

    def finalize_row(self, key: tuple, acc: GroupAccumulator) -> tuple:
        """Assemble one output row of ``V`` from an accumulator."""
        out: list[object] = []
        key_iter = iter(key)
        for index, item in enumerate(self.view.projection):
            if isinstance(item, GroupByItem):
                out.append(next(key_iter))
                continue
            category = self._item_categories[index]
            if category is AggregateCategory.COUNT:
                out.append(acc.multiplicity)
            elif category is AggregateCategory.SUM:
                out.append(acc.sums[index])
            elif category is AggregateCategory.AVG:
                out.append(acc.sums[index] / acc.multiplicity)
            elif category is AggregateCategory.EXTREMUM:
                out.append(acc.extrema[index])
            else:
                out.append(self.finalize_distinct(item, acc.distincts[index]))
        return tuple(out)

    @staticmethod
    def finalize_distinct(item: AggregateItem, values: set) -> object:
        if item.func is AggregateFunction.COUNT:
            return len(values)
        if item.func is AggregateFunction.SUM:
            return sum(values)
        if item.func is AggregateFunction.AVG:
            return sum(values) / len(values)
        raise ReconstructionError(f"unexpected distinct aggregate {item.to_sql()}")

    def reconstruct(
        self,
        relations: Mapping[str, Relation],
        group_filter: frozenset[tuple] | None = None,
    ) -> Relation:
        """Full reconstruction of ``V`` from the supplied relations."""
        groups = self.accumulate(relations, group_filter)
        rows = [
            self.finalize_row(key, acc)
            for key, acc in groups.items()
            if acc.multiplicity > 0
        ]
        result = Relation(self.output_schema, rows, validate=False)
        if self.view.having is not None:
            result = select(result, self.view.having)
        return result

    # ------------------------------------------------------------------
    # Rendering (the paper's rewritten product_sales view).
    # ------------------------------------------------------------------

    def to_sql(self) -> str:
        """The reconstruction query over the auxiliary views, as SQL."""
        names = self.aux_set.aux_names()
        if set(names) != set(self.view.tables):
            raise ReconstructionError(
                "reconstruction SQL requires every table's auxiliary view"
            )
        root_aux = None
        for aux in self.aux_set:
            if aux.count_column is not None:
                root_aux = aux

        def rewrite_column(table: str, attribute: str) -> str:
            return f"{names[table]}.{attribute}"

        select_parts: list[str] = []
        for index, item in enumerate(self.view.projection):
            if isinstance(item, GroupByItem):
                text = rewrite_column(item.column.qualifier, item.column.name)
                if item.alias and item.alias != item.column.name:
                    text += f" AS {item.alias}"
                select_parts.append(text)
                continue
            select_parts.append(self._aggregate_sql(item, index, names, root_aux))
        lines = [
            f"CREATE VIEW {self.view.name} AS",
            "SELECT " + ",\n       ".join(select_parts),
            "FROM " + ", ".join(names[t] for t in self.view.tables),
        ]
        where = [
            f"{names[j.left_table]}.{j.left_attribute} = "
            f"{names[j.right_table]}.{j.right_attribute}"
            for j in self.view.joins
        ]
        if where:
            lines.append("WHERE " + "\n  AND ".join(where))
        group_by = [
            rewrite_column(item.column.qualifier, item.column.name)
            for item in self.view.group_by_items
        ]
        if group_by:
            lines.append("GROUP BY " + ", ".join(group_by))
        return "\n".join(lines)

    def _aggregate_sql(self, item, index, names, root_aux) -> str:
        category = self._item_categories[index]
        alias = f" AS {item.alias}" if item.alias else ""
        if root_aux is None:
            cnt_expr = None
        else:
            cnt_expr = f"{names[root_aux.table]}.{root_aux.plan.count_alias}"
        if category is AggregateCategory.COUNT:
            if cnt_expr is None:
                return f"COUNT(*){alias}"
            return f"SUM({cnt_expr}){alias}"
        if category in (AggregateCategory.SUM, AggregateCategory.AVG):
            folded = self._folded_column(item.column.qualifier, item.column.name)
            if folded is not None:
                table, __, column = folded.partition(".")
                sum_expr = f"SUM({names[table]}.{column})"
            elif cnt_expr is not None:
                raw = f"{names[item.column.qualifier]}.{item.column.name}"
                sum_expr = f"SUM({raw}*{cnt_expr})"
            else:
                raw = f"{names[item.column.qualifier]}.{item.column.name}"
                sum_expr = f"SUM({raw})"
            if category is AggregateCategory.SUM:
                return f"{sum_expr}{alias}"
            count_sql = f"SUM({cnt_expr})" if cnt_expr is not None else "COUNT(*)"
            return f"{sum_expr} / {count_sql}{alias}"
        raw = f"{names[item.column.qualifier]}.{item.column.name}"
        inner = f"DISTINCT {raw}" if item.distinct else raw
        return f"{item.func.value}({inner}){alias}"
