"""Tests for warehouse checkpointing (restart without source access)."""

import errno
import io
import json

import pytest

from repro.catalog.database import BaseTable, Database
from repro.core.maintenance import SelfMaintainer, SelfMaintenanceError
from repro.engine.deltas import Delta, Transaction
from repro.testing.faults import state_fingerprint
from repro.warehouse.persistence import (
    dump_maintainer,
    dump_warehouse,
    load_warehouse,
    restore_maintainer,
    restore_warehouse,
    save_warehouse,
)
from repro.warehouse.warehouse import Warehouse
from repro.workloads.retail import (
    paper_mini_database,
    product_sales_max_view,
    product_sales_view,
)
from repro.workloads.streams import TransactionGenerator

from tests.helpers import assert_same_bag, paper_database


def catalog_only(database: Database) -> Database:
    """The same schema with zero tuples: what a restarted warehouse has."""
    empty = Database()
    for table in database.tables:
        empty.add_table(
            BaseTable(
                table.name,
                {a.name: a.atype for a in table.schema},
                table.key,
                {c.attribute: c.referenced for c in table.references},
                table.exposed_updates,
            )
        )
    return empty


class TestMaintainerCheckpoint:
    def test_roundtrip_through_json(self):
        database = paper_database()
        view = product_sales_view(1997)
        original = SelfMaintainer(view, database)
        checkpoint = json.loads(json.dumps(dump_maintainer(original)))

        restored = restore_maintainer(view, catalog_only(database), checkpoint)
        assert_same_bag(restored.current_view(), original.current_view())
        for aux in original.aux_set:
            assert_same_bag(
                restored.aux_relation(aux.table),
                original.aux_relation(aux.table),
            )

    def test_restored_maintainer_keeps_maintaining(self):
        database = paper_database()
        view = product_sales_view(1997)
        original = SelfMaintainer(view, database)
        checkpoint = json.loads(json.dumps(dump_maintainer(original)))
        restored = restore_maintainer(view, catalog_only(database), checkpoint)

        transaction = Transaction.of(
            Delta.insertion("sale", [(100, 1, 2, 1, 42)])
        )
        database.apply(transaction)
        restored.apply(transaction)
        assert_same_bag(restored.current_view(), view.evaluate(database))

    def test_checkpoint_of_streamed_state(self):
        database = paper_mini_database()
        view = product_sales_view(1997)
        maintainer = SelfMaintainer(view, database)
        generator = TransactionGenerator(database, seed=3)
        for __ in range(15):
            maintainer.apply(generator.step())

        checkpoint = json.loads(json.dumps(dump_maintainer(maintainer)))
        restored = restore_maintainer(view, catalog_only(database), checkpoint)
        assert_same_bag(restored.current_view(), view.evaluate(database))
        # and it keeps going:
        for __ in range(10):
            restored.apply(generator.step())
        assert_same_bag(restored.current_view(), view.evaluate(database))

    def test_view_name_mismatch_rejected(self):
        database = paper_database()
        checkpoint = dump_maintainer(
            SelfMaintainer(product_sales_view(1997), database)
        )
        with pytest.raises(SelfMaintenanceError, match="checkpoint is for"):
            restore_maintainer(
                product_sales_max_view(), catalog_only(database), checkpoint
            )

    def test_append_only_mismatch_rejected(self):
        database = paper_database()
        view = product_sales_view(1997)
        checkpoint = dump_maintainer(SelfMaintainer(view, database))
        with pytest.raises(SelfMaintenanceError, match="append-only"):
            restore_maintainer(
                view, catalog_only(database), checkpoint, append_only=True
            )

    def test_unknown_format_rejected(self):
        database = paper_database()
        view = product_sales_view(1997)
        with pytest.raises(SelfMaintenanceError, match="format"):
            restore_maintainer(view, catalog_only(database), {"format": 99})

    def test_non_object_checkpoint_rejected(self):
        database = paper_database()
        view = product_sales_view(1997)
        with pytest.raises(SelfMaintenanceError, match="not an object"):
            restore_maintainer(view, catalog_only(database), [1])


class TestWarehouseCheckpoint:
    def make_warehouse(self, database):
        warehouse = Warehouse(database)
        warehouse.register(product_sales_view(1997))
        warehouse.register(product_sales_max_view())
        return warehouse

    def test_roundtrip_in_memory(self):
        database = paper_database()
        warehouse = self.make_warehouse(database)
        checkpoint = json.loads(json.dumps(dump_warehouse(warehouse)))
        restored = restore_warehouse(
            {
                "product_sales": product_sales_view(1997),
                "product_sales_max": product_sales_max_view(),
            },
            catalog_only(database),
            checkpoint,
        )
        for name in warehouse.view_names:
            assert_same_bag(restored.summary(name), warehouse.summary(name))

    def test_roundtrip_through_file(self, tmp_path):
        database = paper_database()
        warehouse = self.make_warehouse(database)
        path = tmp_path / "warehouse.json"
        save_warehouse(warehouse, path)
        restored = load_warehouse(
            {
                "product_sales": product_sales_view(1997),
                "product_sales_max": product_sales_max_view(),
            },
            catalog_only(database),
            path,
        )
        transaction = Transaction.of(
            Delta.insertion("sale", [(200, 2, 3, 1, 7)])
        )
        database.apply(transaction)
        restored.apply(transaction)
        for view in (product_sales_view(1997), product_sales_max_view()):
            assert_same_bag(
                restored.summary(view.name), view.evaluate(database)
            )

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        """A save that dies after writing part of its bytes (a crash,
        ENOSPC) leaves the previous checkpoint loadable and unchanged,
        and no temp file behind."""
        database = paper_database()
        warehouse = self.make_warehouse(database)
        views = {
            "product_sales": product_sales_view(1997),
            "product_sales_max": product_sales_max_view(),
        }
        path = tmp_path / "warehouse.json"
        save_warehouse(warehouse, path)

        def fingerprints():
            restored = load_warehouse(views, catalog_only(database), path)
            return {
                name: state_fingerprint(restored.maintainer(name))
                for name in restored.view_names
            }

        before = fingerprints()
        warehouse.apply(
            Transaction.of(Delta.insertion("sale", [(300, 2, 3, 1, 9)]))
        )

        class TornWriter:
            """Writes half of what it is given, then runs out of space."""

            def __init__(self, handle):
                self._handle = handle

            def __getattr__(self, name):
                return getattr(self._handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._handle.close()

            def write(self, text):
                self._handle.write(text[: len(text) // 2])
                self._handle.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

        real_open = io.open

        def torn_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return TornWriter(handle) if "w" in mode else handle

        monkeypatch.setattr(io, "open", torn_open)
        with pytest.raises(OSError, match="No space left"):
            save_warehouse(warehouse, path)
        monkeypatch.undo()

        assert fingerprints() == before
        assert [p.name for p in tmp_path.iterdir()] == ["warehouse.json"]

    def test_view_set_mismatch_rejected(self):
        database = paper_database()
        warehouse = self.make_warehouse(database)
        checkpoint = dump_warehouse(warehouse)
        with pytest.raises(SelfMaintenanceError, match="definitions"):
            restore_warehouse(
                {"product_sales": product_sales_view(1997)},
                catalog_only(database),
                checkpoint,
            )

    @pytest.mark.parametrize("text", ['{"format": 1}', '{"format": 1, "views": [1]}'])
    def test_checkpoint_without_views_object_rejected(self, tmp_path, text):
        path = tmp_path / "warehouse.json"
        path.write_text(text)
        with pytest.raises(SelfMaintenanceError, match="'views'"):
            load_warehouse(
                {"product_sales": product_sales_view(1997)},
                catalog_only(paper_database()),
                path,
            )

    def test_restore_never_reads_tuples(self):
        # The restore catalog has zero rows; success proves metadata-only
        # access.
        database = paper_database()
        warehouse = self.make_warehouse(database)
        catalog = catalog_only(database)
        assert all(len(t.relation) == 0 for t in catalog.tables)
        restored = restore_warehouse(
            {
                "product_sales": product_sales_view(1997),
                "product_sales_max": product_sales_max_view(),
            },
            catalog,
            dump_warehouse(warehouse),
        )
        assert len(restored.summary("product_sales")) > 0
