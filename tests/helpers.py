"""Shared test utilities: float-tolerant bag comparison and fixtures."""

from __future__ import annotations

from collections import Counter

from repro.catalog.database import Database
from repro.core.maintenance import SelfMaintainer
from repro.engine.relation import Relation
from repro.workloads.retail import paper_mini_database


def quantize(value: object) -> object:
    """Round floats so maintained and recomputed results compare exactly."""
    if isinstance(value, float):
        return round(value, 9)
    return value


def bag(relation: Relation) -> Counter:
    """A relation's rows as a float-quantized multiset."""
    return Counter(tuple(quantize(v) for v in row) for row in relation)


def assert_same_bag(actual: Relation, expected: Relation, context: str = "") -> None:
    actual_bag, expected_bag = bag(actual), bag(expected)
    if actual_bag != expected_bag:
        missing = expected_bag - actual_bag
        extra = actual_bag - expected_bag
        raise AssertionError(
            f"relations differ{' (' + context + ')' if context else ''}:\n"
            f"missing: {dict(missing)}\nextra: {dict(extra)}"
        )


def assert_matches_recomputation(
    maintainer, database: Database, context: str = ""
) -> None:
    """The maintenance oracle: ``V`` equals ``evaluate_eager`` over
    ``database`` (the sources *after* the stream the maintainer was fed)
    and every auxiliary view equals the one a fresh in-memory
    maintainer derives from that same database."""
    assert_same_bag(
        maintainer.current_view(),
        maintainer.view.evaluate_eager(database),
        context,
    )
    fresh = SelfMaintainer(
        maintainer.view,
        database,
        append_only=maintainer.append_only,
        backend="memory",
    )
    for table, expected in fresh.aux_relations().items():
        assert_same_bag(
            maintainer.aux_relation(table), expected, f"{context} aux={table}"
        )


def paper_database(sale_rows=None) -> Database:
    """The Section 1.1 star schema with a small, hand-written instance."""
    return paper_mini_database(sale_rows)
