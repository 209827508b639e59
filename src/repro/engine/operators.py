"""Relational operators: selection, projection, joins, generalized projection.

The generalized projection operator ``Π_A`` (Gupta, Harinarayan & Quass,
VLDB 1995) extends duplicate-eliminating projection with aggregates; its
regular attributes act as group-by attributes.  It is the operator at the
top of every GPSJ view and of every compressed auxiliary view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.engine.aggregates import AggregateFunction, compute_aggregate
from repro.engine.compilecache import compiled_predicate, projection_extractor
from repro.engine.expressions import Column, Expression
from repro.engine.relation import Relation
from repro.engine.rowindex import make_key_extractor, make_tuple_extractor
from repro.engine.schema import Attribute, Schema
from repro.engine.types import AttributeType


class OperatorError(Exception):
    """Raised on invalid operator invocations."""


def select(relation: Relation, condition: Expression) -> Relation:
    """``σ_condition(relation)``.

    The compiled predicate comes from the shared compile cache, so
    repeated selections with the same condition over the same schema
    (the common case in maintenance and plan execution) compile once.
    """
    predicate = compiled_predicate(condition, relation.schema)
    return Relation(
        relation.schema, list(filter(predicate, relation.rows)), validate=False
    )


def project(
    relation: Relation,
    references: Sequence[str],
    distinct: bool = True,
) -> Relation:
    """``π_references(relation)``; duplicate-eliminating by default.

    Attribute resolution and the row extractor are cached per
    (schema, references) pair in the shared compile cache.
    """
    schema, extract = projection_extractor(relation.schema, references)
    rows: Iterable[tuple] = map(extract, relation.rows)
    if distinct:
        rows = dict.fromkeys(rows)
    return Relation(schema, list(rows), validate=False)


def cross_product(left: Relation, right: Relation) -> Relation:
    """``left × right`` with concatenated qualified schemas."""
    schema = left.schema.concat(right.schema)
    rows = [l + r for l in left for r in right]
    return Relation(schema, rows, validate=False)


def _join_extractors(
    left: Relation, right: Relation, pairs: Sequence[tuple[str, str]]
):
    """Precompiled key extractors for both sides of a join."""
    left_idx = tuple(left.schema.index_of(l) for l, __ in pairs)
    right_idx = tuple(right.schema.index_of(r) for __, r in pairs)
    return make_key_extractor(left_idx), make_key_extractor(right_idx)


def equijoin(
    left: Relation, right: Relation, pairs: Sequence[tuple[str, str]]
) -> Relation:
    """Hash equijoin on ``pairs`` of (left reference, right reference)."""
    if not pairs:
        return cross_product(left, right)
    left_key, right_key = _join_extractors(left, right, pairs)
    schema = left.schema.concat(right.schema)
    buckets: dict[object, list[tuple]] = {}
    for row in right.rows:
        key = right_key(row)
        bucket = buckets.get(key)
        if bucket is None:
            bucket = buckets[key] = []
        bucket.append(row)
    rows = [
        lrow + rrow
        for lrow in left.rows
        for rrow in buckets.get(left_key(lrow), ())
    ]
    return Relation(schema, rows, validate=False)


def semijoin(
    left: Relation, right: Relation, pairs: Sequence[tuple[str, str]]
) -> Relation:
    """``left ⋉ right``: left rows with at least one join partner."""
    left_key, right_key = _join_extractors(left, right, pairs)
    keys = set(map(right_key, right.rows))
    rows = [row for row in left.rows if left_key(row) in keys]
    return Relation(left.schema, rows, validate=False)


def antijoin(
    left: Relation, right: Relation, pairs: Sequence[tuple[str, str]]
) -> Relation:
    """``left ▷ right``: left rows with no join partner."""
    left_key, right_key = _join_extractors(left, right, pairs)
    keys = set(map(right_key, right.rows))
    rows = [row for row in left.rows if left_key(row) not in keys]
    return Relation(left.schema, rows, validate=False)


def union_all(left: Relation, right: Relation) -> Relation:
    """Bag union; arities must agree (left schema wins)."""
    if len(left.schema) != len(right.schema):
        raise OperatorError("union of relations with different arities")
    return Relation(left.schema, left.rows + right.rows, validate=False)


def rename(relation: Relation, qualifier: str | None) -> Relation:
    """Re-qualify all attributes (the ρ operator)."""
    return Relation(
        relation.schema.with_qualifier(qualifier), relation.rows, validate=False
    )


@dataclass(frozen=True)
class GroupByItem:
    """A regular attribute of a generalized projection (a group-by key)."""

    column: Column
    alias: str | None = None

    @property
    def output_name(self) -> str:
        return self.alias if self.alias is not None else self.column.name

    def to_sql(self) -> str:
        if self.alias is not None and self.alias != self.column.name:
            return f"{self.column.to_sql()} AS {self.alias}"
        return self.column.to_sql()


@dataclass(frozen=True)
class AggregateItem:
    """An aggregate of a generalized projection.

    ``column is None`` encodes ``COUNT(*)``.  All aggregates are over
    single attributes, per Section 2.1 of the paper.
    """

    func: AggregateFunction
    column: Column | None
    distinct: bool = False
    alias: str | None = None

    def __post_init__(self) -> None:
        if self.column is None and self.func is not AggregateFunction.COUNT:
            raise OperatorError(f"{self.func.value}(*) is not a valid aggregate")

    @property
    def is_count_star(self) -> bool:
        return self.column is None

    @property
    def output_name(self) -> str:
        if self.alias is not None:
            return self.alias
        if self.is_count_star:
            return "count_star"
        prefix = "distinct_" if self.distinct else ""
        return f"{self.func.value.lower()}_{prefix}{self.column.name}"

    def output_type(self, input_type: AttributeType | None = None) -> AttributeType:
        """Result type, given the argument's type (None for COUNT(*))."""
        if self.func is AggregateFunction.COUNT:
            return AttributeType.INT
        if self.func is AggregateFunction.AVG:
            return AttributeType.FLOAT
        # SUM/MIN/MAX inherit their argument's type.
        if input_type is None:
            raise OperatorError(f"{self.func.value} requires an argument type")
        return input_type

    def argument_sql(self) -> str:
        if self.is_count_star:
            return "*"
        inner = self.column.to_sql()
        if self.distinct:
            return f"DISTINCT {inner}"
        return inner

    def to_sql(self) -> str:
        rendered = f"{self.func.value}({self.argument_sql()})"
        if self.alias is not None:
            rendered += f" AS {self.alias}"
        return rendered


ProjectionItem = GroupByItem | AggregateItem


def projection_schema(
    items: Sequence[ProjectionItem],
    input_schema: Schema,
    qualifier: str | None = None,
) -> Schema:
    """The output schema of ``Π_items`` over ``input_schema``."""
    attributes = []
    for item in items:
        if isinstance(item, GroupByItem):
            source = input_schema.attribute(item.column.name, item.column.qualifier)
            attributes.append(
                Attribute(item.output_name, source.atype, qualifier, source.size_bytes)
            )
        else:
            input_type = None
            if not item.is_count_star:
                input_type = input_schema.attribute(
                    item.column.name, item.column.qualifier
                ).atype
            attributes.append(
                Attribute(item.output_name, item.output_type(input_type), qualifier)
            )
    return Schema(attributes)


def generalized_project(
    relation: Relation,
    items: Sequence[ProjectionItem],
    qualifier: str | None = None,
) -> Relation:
    """``Π_items(relation)``: group on the regular attributes, aggregate the rest.

    With no aggregates this degenerates to duplicate-eliminating
    projection, exactly as in the paper's definition.
    """
    group_positions = [
        (i, relation.schema.index_of(item.column.name, item.column.qualifier))
        for i, item in enumerate(items)
        if isinstance(item, GroupByItem)
    ]
    agg_specs = [
        (
            i,
            item,
            None
            if item.is_count_star
            else relation.schema.index_of(item.column.name, item.column.qualifier),
        )
        for i, item in enumerate(items)
        if isinstance(item, AggregateItem)
    ]
    schema = projection_schema(items, relation.schema, qualifier)
    group_key = make_tuple_extractor(tuple(pos for __, pos in group_positions))

    if not agg_specs:
        rows = dict.fromkeys(map(group_key, relation.rows))
        return Relation(schema, list(rows), validate=False)

    groups: dict[tuple, list[tuple]] = {}
    for row in relation.rows:
        key = group_key(row)
        members = groups.get(key)
        if members is None:
            members = groups[key] = []
        members.append(row)

    rows = []
    for key, members in groups.items():
        out: list[object] = [None] * len(items)
        for (slot, __), value in zip(group_positions, key):
            out[slot] = value
        for slot, item, pos in agg_specs:
            if item.is_count_star:
                out[slot] = len(members)
            else:
                values = [member[pos] for member in members]
                out[slot] = compute_aggregate(item.func, values, item.distinct)
        rows.append(tuple(out))
    return Relation(schema, rows, validate=False)
