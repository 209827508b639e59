"""Unit tests for the columnar backend: column stores, selection
kernels, store materializations, and backend selection.

The differential and fault-injection suites
(:mod:`tests.test_backends_differential`) pin the integrated behavior;
these tests pin the pieces — free-list recycling, rid-index
maintenance, decode-map caching, the compiled apply/fold paths, and
the error surface — at the level where a regression is diagnosable.
"""

from array import array

import pytest

from repro.backends.base import (
    BACKEND_NAMES,
    BackendError,
    make_backend,
    resolve_backend_name,
)
from repro.backends.columnar import ColumnarBackend, _ColumnarStore
from repro.backends.kernels import ColumnStore, gather, selection_vector
from repro.core.derivation import derive_auxiliary_views
from repro.core.maintenance import SelfMaintenanceError
from repro.core.view import JoinCondition, make_view
from repro.engine.aggregates import AggregateFunction
from repro.engine.expressions import Column
from repro.engine.operators import AggregateItem, GroupByItem
from repro.engine.schema import Attribute, Schema
from repro.engine.types import AttributeType
from repro.engine.undolog import UndoLog
from repro.workloads.retail import product_sales_max_view, product_sales_view

from tests.helpers import assert_same_bag, paper_database


def _schema(*specs) -> Schema:
    return Schema(Attribute(name, atype) for name, atype in specs)


def assert_rid_indexes_consistent(materialization) -> None:
    """Every maintained value->rids index mirrors the live columns."""
    store = materialization.store
    for position, index in materialization._rid_indexes.items():
        column = store.columns[position]
        expected: dict = {}
        for rid, bit in enumerate(store.live):
            if bit:
                expected.setdefault(column[rid], set()).add(rid)
        assert index == expected, f"index on column {position} diverged"


def _columnar_materialization(view, table="sale", append_only=False):
    database = paper_database()
    aux = derive_auxiliary_views(view, database, append_only=append_only)
    materialization = ColumnarBackend().make_materialization(
        aux.for_table(table)
    )
    materialization.load(aux.materialize(database)[table])
    return materialization


def _minmax_view():
    """An extremum-bearing view whose append-only auxiliary view folds
    MIN/MAX — the shape the compiled apply loop must refuse."""
    return make_view(
        "price_range",
        ("sale", "time"),
        [
            GroupByItem(Column("month", "time")),
            AggregateItem(
                AggregateFunction.MIN, Column("price", "sale"), alias="lo"
            ),
            AggregateItem(
                AggregateFunction.MAX, Column("price", "sale"), alias="hi"
            ),
            AggregateItem(AggregateFunction.COUNT, None, alias="n"),
        ],
        joins=[JoinCondition("sale", "timeid", "time", "id")],
    )


class TestColumnStore:
    SCHEMA = _schema(
        ("id", AttributeType.INT),
        ("name", AttributeType.STRING),
        ("price", AttributeType.FLOAT),
    )

    def test_float_columns_are_typed_arrays(self):
        store = ColumnStore(self.SCHEMA)
        assert isinstance(store.columns[2], array)
        assert store.columns[2].typecode == "d"
        assert isinstance(store.columns[0], list)

    def test_append_release_recycles_rids(self):
        store = ColumnStore(self.SCHEMA)
        rids = [store.append((i, f"r{i}", float(i))) for i in range(4)]
        assert len(store) == 4 and store.capacity == 4
        store.release(rids[1])
        store.release(rids[2])
        assert len(store) == 2 and store.capacity == 4
        # Recycled slots are reused LIFO; capacity does not grow.
        first = store.append((9, "r9", 9.0))
        second = store.append((8, "r8", 8.0))
        assert {first, second} == {rids[1], rids[2]}
        assert store.capacity == 4
        assert sorted(store.all_rows()) == [
            (0, "r0", 0.0), (3, "r3", 3.0), (8, "r8", 8.0), (9, "r9", 9.0),
        ]

    def test_release_nulls_object_columns_only(self):
        store = ColumnStore(self.SCHEMA)
        rid = store.append((1, "gone", 2.5))
        store.release(rid)
        assert store.columns[0][rid] is None
        assert store.columns[1][rid] is None
        assert store.live[rid] == 0  # the null mask covers the stale double

    def test_live_rids_skip_holes(self):
        store = ColumnStore(self.SCHEMA)
        keep = store.append((1, "a", 1.0))
        drop = store.append((2, "b", 2.0))
        store.release(drop)
        assert list(store.live_rids()) == [keep]


class TestKernels:
    ROWS = [(1, 10), (2, 20), (3, 30), (2, 40)]

    def test_selection_vector_and_gather(self):
        selection = selection_vector(self.ROWS, lambda row: row[0] == 2)
        assert selection == [1, 3]
        assert gather(self.ROWS, selection) == [(2, 20), (2, 40)]


class TestColumnarProjectionStore:
    # The time auxiliary view under product_sales projects
    # (id, month) out of base rows shaped (id, day, month, year).

    def test_apply_and_bulk_insert_maintain_indexes(self):
        materialization = _columnar_materialization(
            product_sales_view(1997), table="time"
        )
        materialization.rows_matching("id", {1})  # build the rid index
        before = len(materialization)
        fresh = [
            (900 + i, 1, 1 + i, 1997) for i in range(8)
        ]  # exceeds any free slots: exercises the bulk-extend tail
        materialization.apply(fresh, sign=+1)
        assert len(materialization) == before + len(fresh)
        assert_rid_indexes_consistent(materialization)
        materialization.apply(fresh[:3], sign=-1)
        assert len(materialization) == before + 5
        assert_rid_indexes_consistent(materialization)
        assert len(materialization.store.free) == 3
        # Recycled slots are filled before the columns grow again.
        capacity = materialization.store.capacity
        materialization.apply(fresh[:2], sign=+1)
        assert materialization.store.capacity == capacity
        assert_rid_indexes_consistent(materialization)

    def test_delete_of_absent_row_is_all_or_nothing(self):
        materialization = _columnar_materialization(
            product_sales_view(1997), table="time"
        )
        before = materialization.relation()
        with pytest.raises(SelfMaintenanceError, match="absent rows"):
            # (1, 1, 1, 1997) projects to a live row; the second does not.
            materialization.apply([(1, 1, 1, 1997), (77, 1, 9, 1997)], -1)
        assert_same_bag(materialization.relation(), before, "failed delete")

    def test_decode_map_unique_nonunique_and_invalidation(self):
        materialization = _columnar_materialization(
            product_sales_view(1997), table="time"
        )
        position = materialization.schema.index_of("id")
        month = materialization.schema.index_of("month")
        mapping = materialization.decode_map(position, month)
        assert mapping is not None
        live = materialization.store
        for rid, bit in enumerate(live.live):
            if bit:
                key = live.columns[position][rid]
                assert mapping[key] == live.columns[month][rid]
        # Non-unique key column: the map is disabled, not wrong.
        assert materialization.decode_map(month, position) is None
        # Mutation drops the cache.
        materialization.apply([(99, 1, 5, 1997)], sign=+1)
        assert (position, month) not in materialization._decode_maps

    def test_undo_restores_rows_and_indexes(self):
        materialization = _columnar_materialization(
            product_sales_view(1997), table="time"
        )
        materialization.rows_matching("id", {1})
        before = materialization.relation()
        log = UndoLog()
        materialization.begin_undo(log)
        materialization.apply([(901, 1, 1, 1997), (902, 1, 2, 1997)], +1)
        materialization.apply([(1, 1, 1, 1997)], -1)
        log.rollback()
        materialization.end_undo()
        assert_same_bag(materialization.relation(), before, "undo")
        assert_rid_indexes_consistent(materialization)


class TestColumnarCompressedStore:
    def test_compiled_apply_creates_updates_and_releases_groups(self):
        materialization = _columnar_materialization(product_sales_view(1997))
        assert materialization._fast_apply is not None
        materialization.rows_matching("timeid", {3})
        # Fresh group, then release it back to zero.
        materialization.apply([(900, 9, 9, 1, 4)], sign=+1)
        assert (9, 9, 4, 1) in materialization.relation().rows
        assert_rid_indexes_consistent(materialization)
        materialization.apply([(900, 9, 9, 1, 4)], sign=-1)
        assert all(row[:2] != (9, 9) for row in materialization.relation())
        assert materialization.store.free, "released rid not recycled"
        assert_rid_indexes_consistent(materialization)

    def test_error_messages_match_row_engine(self):
        materialization = _columnar_materialization(product_sales_view(1997))
        with pytest.raises(
            SelfMaintenanceError, match=r"deletion from absent group \(9, 9\)"
        ):
            materialization.apply([(900, 9, 9, 1, 4)], sign=-1)
        with pytest.raises(
            SelfMaintenanceError, match=r"absent group \(3, 1\)"
        ):
            # Group (3, 1) holds exactly one sale; the first deletion in
            # the batch releases the group inline, so the second hits
            # the absent-group check — exactly like the row engine.
            materialization.apply(
                [(8, 3, 1, 1, 5), (8, 3, 1, 1, 5)], sign=-1
            )

    def test_minmax_shape_keeps_generic_loop_and_append_only(self):
        materialization = _columnar_materialization(
            _minmax_view(), append_only=True
        )
        assert materialization._fast_apply is None
        materialization.apply([(900, 1, 1, 1, 123)], sign=+1)
        with pytest.raises(SelfMaintenanceError, match="append-only"):
            materialization.apply([(900, 1, 1, 1, 123)], sign=-1)

    def test_algebraic_max_view_pins_raw_column_and_stays_compiled(self):
        # Without the append-only relaxation, MAX keeps `price` in the
        # grouping key, so the store is an ordinary counted compression
        # and the compiled loop (deletions included) still applies.
        materialization = _columnar_materialization(product_sales_max_view())
        assert materialization._fast_apply is not None
        materialization.apply([(900, 1, 1, 1, 123)], sign=+1)
        assert (1, 123, 1) in materialization.relation().rows
        materialization.apply([(900, 1, 1, 1, 123)], sign=-1)
        assert (1, 123, 1) not in materialization.relation().rows

    def test_undo_restores_totals_by_key(self):
        materialization = _columnar_materialization(product_sales_view(1997))
        before = materialization.relation()
        log = UndoLog()
        materialization.begin_undo(log)
        materialization.apply(
            [(901, 1, 1, 1, 50), (902, 9, 9, 1, 60)], sign=+1
        )
        materialization.apply([(8, 3, 1, 1, 5)], sign=-1)
        log.rollback()
        materialization.end_undo()
        assert_same_bag(materialization.relation(), before, "undo")


class TestBackendSelection:
    def test_make_backend_unknown_spec_lists_names_and_specs(self):
        with pytest.raises(BackendError) as excinfo:
            make_backend("parquet:/tmp/x")
        message = str(excinfo.value)
        assert "unknown backend 'parquet:/tmp/x'" in message
        for name in BACKEND_NAMES:
            assert name in message
        assert "parallel" not in message

    def test_sqlite_is_not_a_runtime_backend(self):
        assert BACKEND_NAMES == ("memory", "columnar")
        with pytest.raises(BackendError) as excinfo:
            make_backend("sqlite")
        assert "valid names are memory, columnar" in str(excinfo.value)

    @pytest.mark.parametrize(
        "spec", ["sharded", "sharded:3", "memory:2", "columnar:1"]
    )
    def test_retired_and_suffixed_specs_are_rejected(self, spec):
        for call in (make_backend, resolve_backend_name):
            with pytest.raises(BackendError) as excinfo:
                call(spec)
            assert str(excinfo.value).endswith(
                "valid names are memory, columnar"
            )

    def test_env_variable_with_retired_spec_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "sharded:3")
        with pytest.raises(BackendError, match="valid names are memory, columnar"):
            make_backend(None)
        with pytest.raises(BackendError, match="'sharded:3'"):
            resolve_backend_name(None)

    def test_resolve_backend_name_rejects_unknown(self):
        with pytest.raises(BackendError, match="valid names are"):
            resolve_backend_name("duckdb")
        for name in BACKEND_NAMES:
            assert resolve_backend_name(name) == name

    def test_columnar_spec_builds_columnar_backend(self):
        backend = make_backend("columnar")
        assert isinstance(backend, ColumnarBackend)
        assert backend.name == "columnar"
        assert "column stores" in backend.describe()

    def test_env_variable_selects_columnar(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "columnar")
        assert isinstance(make_backend(None), ColumnarBackend)
        assert resolve_backend_name(None) == "columnar"


class TestStoreKindSelection:
    def test_projection_and_compressed_pick_columnar_stores(self):
        database = paper_database()
        aux = derive_auxiliary_views(product_sales_view(1997), database)
        backend = ColumnarBackend()
        for table in ("sale", "time", "product"):
            materialization = backend.make_materialization(
                aux.for_table(table)
            )
            assert isinstance(materialization, _ColumnarStore)
