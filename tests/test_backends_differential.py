"""Differential tests: the columnar backend against the interpreter.

For random GPSJ views, random delta streams, and injected faults, a
columnar-backed maintainer must be row-multiset-identical to both the
memory backend and ground-truth recomputation — including after
rollbacks, where the column stores' key-snapshot undo stands in for the
interpreter's row-by-row replay.
"""

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from repro.backends.base import make_backend
from repro.backends.columnar import ColumnarBackend
from repro.core.maintenance import SelfMaintainer
from repro.sql import parse_view
from repro.testing.faults import (
    FaultInjector,
    InjectedFault,
    state_fingerprint,
)
from repro.warehouse.warehouse import Warehouse
from repro.workloads.random_gen import random_scenario
from repro.workloads.retail import (
    RetailConfig,
    build_retail_database,
    product_sales_max_view,
    product_sales_view,
)
from repro.workloads.streams import TransactionGenerator

from tests.helpers import assert_same_bag, paper_database

SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _assert_maintainers_match(other_m, memory_m, context=""):
    assert_same_bag(
        other_m.current_view(), memory_m.current_view(), context
    )
    for table in memory_m.aux_relations():
        assert_same_bag(
            other_m.aux_relation(table),
            memory_m.aux_relation(table),
            f"{context} aux={table}",
        )


class TestWarehouseDifferential:
    def test_retail_stream_matches_across_backends(self):
        def build():
            return build_retail_database(
                RetailConfig(
                    days=6,
                    stores=2,
                    products=8,
                    products_sold_per_day=4,
                    transactions_per_product=2,
                    start_year=1997,
                )
            )

        db_mem, db_col = build(), build()
        views = [product_sales_view(1997), product_sales_max_view()]
        mem = Warehouse(db_mem, list(views), backend="memory")
        col = Warehouse(db_col, list(views), backend="columnar")
        gen_mem = TransactionGenerator(db_mem, seed=13)
        gen_col = TransactionGenerator(db_col, seed=13)
        for step in range(8):
            mem.apply(gen_mem.step())
            col.apply(gen_col.step())
            for name in mem.view_names:
                _assert_maintainers_match(
                    col.maintainer(name), mem.maintainer(name),
                    f"step={step} view={name}",
                )


@given(seed=st.integers(0, 10_000), steps=st.integers(1, 5))
@settings(**SETTINGS)
def test_columnar_maintainer_tracks_memory_and_recomputation(seed, steps):
    """For random GPSJ views and streams, the columnar backend's fused
    kernels must be bit-identical (row multisets, float payloads
    included) to the memory backend and to eager recomputation."""
    scenario = random_scenario(seed)
    memory_m = SelfMaintainer(scenario.view, scenario.database,
                              backend="memory")
    columnar_m = SelfMaintainer(scenario.view, scenario.database,
                                backend="columnar")
    for step in range(steps):
        transaction = scenario.generator.step()
        memory_m.apply(transaction)
        columnar_m.apply(transaction)
        context = f"seed={seed} step={step}"
        _assert_maintainers_match(columnar_m, memory_m, context)
        assert_same_bag(
            columnar_m.current_view(),
            scenario.view.evaluate_eager(scenario.database),
            context,
        )


class TestColumnarRollbackParity:
    """A fault at *every* phase boundary (entry and exit) leaves a
    columnar-backed maintainer exactly at its pre-transaction
    fingerprint, in lockstep with the memory backend — the all-or-
    nothing contract of the column stores' key-snapshot undo."""

    PHASES = ("coalesce", "validate", "local-reduce", "join-reduce",
              "aggregate-fold", "aux-apply")

    @pytest.mark.parametrize("phase", PHASES)
    @pytest.mark.parametrize("when", ["before", "after"])
    def test_fault_rolls_back_columnar_and_memory_identically(
        self, phase, when
    ):
        results = {}
        for backend in ("memory", "columnar"):
            database = build_retail_database(
                RetailConfig(
                    days=6, stores=2, products=8, products_sold_per_day=4,
                    transactions_per_product=2, start_year=1997,
                )
            )
            maintainer = SelfMaintainer(
                product_sales_view(1997), database, backend=backend
            )
            generator = TransactionGenerator(database, seed=47)
            maintainer.apply(generator.step())
            fingerprint = state_fingerprint(maintainer)
            injector = FaultInjector(maintainer)
            injector.arm(phase, when=when)
            tx = generator.next_transaction()
            with pytest.raises(InjectedFault):
                maintainer.apply(tx)
            injector.uninstall()
            assert state_fingerprint(maintainer) == fingerprint, (
                f"{backend} not rolled back after fault {when} {phase}"
            )
            # The disarmed transaction then applies cleanly.
            database.apply(tx)
            maintainer.apply(tx)
            results[backend] = maintainer
        assert_same_bag(
            results["columnar"].current_view(),
            results["memory"].current_view(),
            f"phase={phase} when={when}",
        )
        for table in results["memory"].aux_relations():
            assert_same_bag(
                results["columnar"].aux_relation(table),
                results["memory"].aux_relation(table),
                f"phase={phase} when={when} aux={table}",
            )


def test_columnar_delete_heavy_hot_key_stream_recycles_rows():
    """A delete-heavy stream with hot-key skew (many updates landing on
    one group) must recycle freed row ids: the column stores' physical
    capacity stays bounded by the high-water mark while states remain
    bit-identical to the memory backend."""
    import sys
    from pathlib import Path

    sys.path.insert(
        0, str(Path(__file__).resolve().parent.parent / "benchmarks")
    )
    from harness import SCALES, hotpath_view, make_stream

    from repro.backends.columnar import _ColumnarStore

    database_mem = build_retail_database(SCALES["small"])
    database_col = build_retail_database(SCALES["small"])
    memory_m = SelfMaintainer(
        hotpath_view(1997), database_mem, backend="memory"
    )
    columnar_m = SelfMaintainer(
        hotpath_view(1997), database_col, backend="columnar"
    )
    stream = make_stream(
        database_mem, "delete_heavy", transactions=30, batch=12,
        hot_key_fraction=0.6,
    )
    high_water = 0
    for step, transaction in enumerate(stream):
        memory_m.apply(transaction)
        columnar_m.apply(transaction)
        stores = [
            m.store
            for m in columnar_m._materializations.values()
            if isinstance(m, _ColumnarStore)
        ]
        assert stores, "columnar maintainer has no column stores"
        capacity = sum(store.capacity for store in stores)
        live = sum(len(store) for store in stores)
        high_water = max(high_water, live)
        # Free-list recycling: physical slots never exceed the most
        # rows that were ever simultaneously live (no append-only leak
        # under churn).
        assert capacity <= high_water, (
            f"step={step}: capacity {capacity} exceeds high water "
            f"{high_water} — freed rids are not being recycled"
        )
        _assert_maintainers_match(columnar_m, memory_m, f"step={step}")
    total_free = sum(
        len(m.store.free)
        for m in columnar_m._materializations.values()
        if isinstance(m, _ColumnarStore)
    )
    assert total_free > 0, "delete-heavy stream never freed a row id"


def test_env_variable_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "columnar")
    assert isinstance(make_backend(None), ColumnarBackend)
    database = paper_database()
    view = parse_view(
        """CREATE VIEW v AS
           SELECT store.city, COUNT(*) AS n FROM sale, store
           WHERE sale.storeid = store.id GROUP BY store.city""",
        database,
    )
    maintainer = SelfMaintainer(view, database)
    assert maintainer.backend.name == "columnar"
    monkeypatch.delenv("REPRO_BACKEND")
    assert make_backend(None).name == "memory"
