"""Property tests for maintained row indexes and indexed operators.

The invariant: a :class:`RowIndex` maintained incrementally through any
interleaving of inserts and deletes (duplicates included) is
indistinguishable from one rebuilt from scratch, and every probe answers
exactly what a filter of the backing bag finds.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.relation import Relation, RelationError
from repro.engine.rowindex import (
    RowIndex,
    RowIndexError,
    make_key_extractor,
    make_tuple_extractor,
)
from repro.engine.types import AttributeType

SETTINGS = dict(max_examples=60, deadline=None)

# Small domains force duplicate rows and key collisions.
row_strategy = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 5)
)
rows_strategy = st.lists(row_strategy, max_size=25)
# An interleaving: True = insert a fresh row, False = delete a live one.
ops_strategy = st.lists(
    st.tuples(st.booleans(), row_strategy, st.integers(0, 100)), max_size=30
)


def make_relation(rows, qualifier="r"):
    return Relation.from_columns(
        ("a", "b", "c"),
        (AttributeType.INT, AttributeType.INT, AttributeType.INT),
        rows,
        qualifier=qualifier,
    )


def churn(relation, ops):
    """Apply a random insert/delete interleaving, keeping deletes valid."""
    for is_insert, row, pick in ops:
        if is_insert or not relation.rows:
            relation.insert(row)
        else:
            relation.delete(relation.rows[pick % len(relation.rows)])


@given(initial=rows_strategy, ops=ops_strategy)
@settings(**SETTINGS)
def test_maintained_index_equals_rebuild(initial, ops):
    relation = make_relation(initial)
    maintained = relation.index_on("a", "c")  # registered before the churn
    churn(relation, ops)
    rebuilt = RowIndex(maintained.positions, relation.rows)
    assert maintained.keys() == rebuilt.keys()
    for key in rebuilt.keys():
        assert Counter(maintained.rows_for(key)) == Counter(rebuilt.rows_for(key))
    assert len(maintained) == len(relation)


def assert_probes_match_bag(left, right, index, left_refs):
    """Probing ``index`` with each left row's join key yields exactly the
    right rows a filter of the bag finds: the partners an index-probe
    join would emit for that row."""
    left_key = make_key_extractor(
        tuple(left.schema.index_of(ref) for ref in left_refs)
    )
    right_key = make_key_extractor(index.positions)
    for row in left.rows:
        key = left_key(row)
        expected = Counter(r for r in right.rows if right_key(r) == key)
        assert Counter(index.rows_for(key)) == expected, key


@given(
    left_rows=rows_strategy, right_initial=rows_strategy, ops=ops_strategy
)
@settings(**SETTINGS)
def test_indexed_joins_match_unindexed(left_rows, right_initial, ops):
    left = make_relation(left_rows, "l")
    right = make_relation(right_initial, "r")
    index = right.index_on("b")  # registered before the churn
    churn(right, ops)
    assert_probes_match_bag(left, right, index, ("l.b",))


@given(
    left_rows=rows_strategy, right_initial=rows_strategy, ops=ops_strategy
)
@settings(**SETTINGS)
def test_indexed_multicolumn_joins_match_unindexed(
    left_rows, right_initial, ops
):
    left = make_relation(left_rows, "l")
    right = make_relation(right_initial, "r")
    index = right.index_on("a", "c")
    churn(right, ops)
    assert_probes_match_bag(left, right, index, ("l.a", "l.c"))


def test_remove_absent_row_raises():
    index = RowIndex((0,), [(1, "x")])
    with pytest.raises(RowIndexError):
        index.remove((2, "y"))
    index.remove((1, "x"))
    assert not index.keys()
    assert len(index) == 0


def test_duplicate_rows_removed_one_at_a_time():
    row = (7, "dup")
    index = RowIndex((0,), [row, row, row])
    assert list(index.rows_for(7)) == [row, row, row]
    index.remove(row)
    assert list(index.rows_for(7)) == [row, row]
    index.remove_all([row, row])
    assert 7 not in index
    assert index.keys() == set()  # bucket fully drained, key gone


def test_relation_delete_keeps_indexes_exact():
    relation = make_relation([(1, 1, 1), (1, 1, 1), (2, 2, 2)])
    index = relation.index_on("a")
    relation.delete((1, 1, 1))
    assert Counter(index.rows_for(1)) == Counter([(1, 1, 1)])
    relation.delete_where(lambda row: row[0] == 1)
    assert 1 not in index
    with pytest.raises(RelationError):
        relation.delete((9, 9, 9))
    assert index.keys() == {2}


def test_extractor_conventions():
    # Single-column key extractors yield bare scalars; tuple extractors
    # always yield tuples — the convention indexes and operators share.
    assert make_key_extractor((1,))(("a", "b")) == "b"
    assert make_key_extractor((0, 1))(("a", "b")) == ("a", "b")
    assert make_tuple_extractor((1,))(("a", "b")) == ("b",)
    assert make_tuple_extractor(())(("a", "b")) == ()
