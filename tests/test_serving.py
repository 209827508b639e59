"""The serving layer: snapshot stores, the apply queue, the HTTP service.

Most tests drive :class:`WarehouseService` methods directly (no
sockets); one socket test and one concurrent load test cover the real
``ThreadingHTTPServer`` path end to end, including the shadow-replay
consistency proof from :mod:`repro.serving.loadgen`.
"""

from __future__ import annotations

import json
import random
import socket
import urllib.error
import urllib.request

import pytest

from repro.core.maintenance import SelfMaintainer
from repro.engine.deltas import Delta, Transaction
from repro.serving import (
    ApplyQueue,
    BackpressureError,
    SnapshotError,
    VersionGoneError,
    VersionedViewStore,
    WarehouseServer,
    WarehouseService,
)
from repro.serving.loadgen import (
    canonical_rows,
    check_against_shadow,
    run_load,
)
from repro.serving.server import ServiceError
from repro.testing.faults import state_fingerprint
from repro.warehouse.warehouse import Warehouse
from repro.workloads.retail import (
    RetailConfig,
    build_retail_database,
    product_sales_view,
)

from tests.helpers import paper_database


def _insert(sale_id, time=1, product=1, store=1, price=10) -> Transaction:
    return Transaction.of(
        Delta.insertion("sale", [(sale_id, time, product, store, price)])
    )


def _delete(row) -> Transaction:
    return Transaction.of(Delta.deletion("sale", [row]))


@pytest.fixture
def maintainer():
    return SelfMaintainer(product_sales_view(1997), paper_database())


def _store_from(maintainer, retain: int = 64) -> VersionedViewStore:
    return VersionedViewStore(
        maintainer.view.name,
        maintainer.reconstructor.output_schema,
        maintainer.group_rows(),
        having=maintainer.view.having,
        retain=retain,
    )


class TestVersionedViewStore:
    def test_initial_snapshot_matches_maintainer(self, maintainer):
        store = _store_from(maintainer)
        snapshot = store.snapshot()
        assert snapshot.version == 0
        assert snapshot.txn_watermark == 0
        assert canonical_rows(snapshot.rows()) == canonical_rows(
            maintainer.current_view().rows
        )

    def test_publish_and_pinned_reads(self, maintainer):
        store = _store_from(maintainer)
        v0_rows = canonical_rows(store.snapshot().rows())
        key = next(iter(maintainer.group_rows()))
        replaced = maintainer.summary_row(key)
        changed = tuple(
            value + 1 if isinstance(value, (int, float)) else value
            for value in replaced
        )
        store.publish(1, 1, {key: changed})
        # The latest snapshot sees the patch; version 0 stays pinned.
        assert canonical_rows(store.snapshot().rows()) != v0_rows
        assert canonical_rows(store.snapshot(0).rows()) == v0_rows
        assert store.snapshot(1).txn_watermark == 1
        assert store.latest_version == 1

    def test_none_change_deletes_group(self, maintainer):
        store = _store_from(maintainer)
        key = next(iter(maintainer.group_rows()))
        before = len(store.snapshot())
        store.publish(1, 1, {key: None})
        assert len(store.snapshot()) == before - 1
        assert len(store.snapshot(0)) == before

    def test_versions_must_strictly_increase(self, maintainer):
        store = _store_from(maintainer)
        store.publish(1, 1, {})
        with pytest.raises(SnapshotError):
            store.publish(1, 2, {})
        with pytest.raises(SnapshotError):
            store.publish(0, 3, {})

    def test_unpublished_version_rejected(self, maintainer):
        store = _store_from(maintainer)
        with pytest.raises(SnapshotError):
            store.snapshot(1)

    def test_retention_compaction(self, maintainer):
        store = _store_from(maintainer, retain=2)
        key = next(iter(maintainer.group_rows()))
        row = maintainer.summary_row(key)
        expected = {}
        for version in range(1, 6):
            patched = (f"v{version}",) + tuple(row[1:])
            store.publish(version, version, {key: patched})
            expected[version] = patched
        # Old versions fell off the retention window...
        with pytest.raises(VersionGoneError):
            store.snapshot(1)
        # ...but every retained version reconstructs exactly.
        published = store._published
        for version in range(published.base_version, 6):
            snap = store.snapshot(version)
            rows = dict(snap._rows_by_key)
            assert rows[key] == expected[version]
            assert snap.txn_watermark == version
        assert len(published.patches) <= 2

    def test_compaction_does_not_disturb_held_snapshots(self, maintainer):
        store = _store_from(maintainer, retain=1)
        held = store.snapshot()
        rows_before = canonical_rows(held.rows())
        key = next(iter(maintainer.group_rows()))
        for version in range(1, 5):
            store.publish(version, version, {key: None})
        # The held snapshot object still serves its original rows even
        # though its version left the window.
        assert canonical_rows(held.rows()) == rows_before

    def test_retain_must_be_positive(self, maintainer):
        with pytest.raises(ValueError):
            _store_from(maintainer, retain=0)


class TestApplyQueue:
    def _build(self, **kwargs):
        database = paper_database()
        warehouse = Warehouse(database, [product_sales_view(1997)])
        maintainer = warehouse.maintainer("product_sales")
        store = _store_from(maintainer)
        queue = ApplyQueue(warehouse, {"product_sales": store}, **kwargs)
        return database, warehouse, maintainer, store, queue

    def test_submit_applies_and_publishes(self):
        database, warehouse, maintainer, store, queue = self._build()
        queue.start()
        try:
            ticket = queue.submit(_insert(100, price=30)).wait(10)
            assert (ticket.version, ticket.watermark) == (1, 1)
            assert canonical_rows(store.snapshot().rows()) == canonical_rows(
                maintainer.current_view().rows
            )
            assert queue.applied == 1
        finally:
            queue.stop()
            warehouse.close()

    def test_microbatch_coalesces_churn(self):
        database, warehouse, maintainer, store, queue = self._build(
            max_batch=8
        )
        before = canonical_rows(maintainer.current_view().rows)
        row = (100, 1, 1, 1, 30)
        # Submit before starting the worker so both land in one batch:
        # the insert/delete pair cancels and nothing is propagated.
        t1 = queue.submit(_insert(*row[:1], *row[1:]))
        t2 = queue.submit(_delete(row))
        queue.start()
        try:
            t1.wait(10)
            t2.wait(10)
            assert t1.version == t2.version == 1
            assert canonical_rows(maintainer.current_view().rows) == before
            registry = queue.registry
            assert registry.counter(
                "repro_serving_coalesced_rows_total"
            ).value == 2
            assert registry.counter(
                "repro_serving_txns_applied_total"
            ).value == 2
            assert registry.counter("repro_serving_batches_total").value == 1
        finally:
            queue.stop()
            warehouse.close()

    def test_backpressure_when_full(self):
        database, warehouse, maintainer, store, queue = self._build(
            max_pending=1
        )
        queue.submit(_insert(100))
        with pytest.raises(BackpressureError):
            queue.submit(_insert(101))
        warehouse.close()

    def test_failed_batch_publishes_nothing(self):
        database, warehouse, maintainer, store, queue = self._build()
        fingerprint = state_fingerprint(maintainer)
        original = warehouse.backend.commit
        warehouse.backend.commit = lambda: (_ for _ in ()).throw(
            RuntimeError("injected commit failure")
        )
        queue.start()
        try:
            ticket = queue.submit(_insert(100))
            with pytest.raises(RuntimeError, match="injected"):
                ticket.wait(10)
            assert queue.version == 0
            assert store.latest_version == 0
            assert state_fingerprint(maintainer) == fingerprint
            assert "injected" in queue.last_error
            # The queue survives: the next transaction goes through.
            warehouse.backend.commit = original
            database.apply(_insert(101))
            good = queue.submit(_insert(101)).wait(10)
            assert good.version == 1
        finally:
            queue.stop()
            warehouse.close()

    def test_flush_is_a_barrier(self):
        database, warehouse, maintainer, store, queue = self._build()
        queue.start()
        try:
            ticket = queue.flush()
            assert (ticket.version, ticket.watermark) == (0, 0)
            queue.submit(_insert(100))
            queue.submit(_insert(101, time=2))
            after = queue.flush()
            assert after.watermark == 2
        finally:
            queue.stop()
            warehouse.close()


def _service(**options) -> tuple[Warehouse, WarehouseService]:
    database = paper_database()
    warehouse = Warehouse(database, [product_sales_view(1997)])
    return warehouse, WarehouseService(warehouse, **options)


def _apply_body(transaction) -> bytes:
    return json.dumps(
        {
            "deltas": [
                {
                    "table": delta.table,
                    "inserted": [list(r) for r in delta.inserted],
                    "deleted": [list(r) for r in delta.deleted],
                }
                for delta in transaction
            ]
        }
    ).encode()


class TestWarehouseService:
    def test_query_round_trip(self):
        warehouse, service = _service()
        service.start()
        try:
            status, ctype, payload = service.query("product_sales")
            assert status == 200
            body = json.loads(payload)
            assert body["version"] == 0
            assert body["columns"][0] == "month"
            baseline = body["rows"]

            status, __, payload = service.apply(
                _apply_body(_insert(100, price=30)), mode="sync"
            )
            assert status == 200
            applied = json.loads(payload)
            assert applied["version"] == 1
            assert applied["txn_watermark"] == 1

            __, __, payload = service.query("product_sales")
            assert json.loads(payload)["rows"] != baseline
            # The pre-transaction version stays readable.
            __, __, payload = service.query("product_sales", version=0)
            assert json.loads(payload)["rows"] == baseline
        finally:
            service.stop()
            warehouse.close()

    def test_async_apply_then_refresh(self):
        warehouse, service = _service()
        service.start()
        try:
            status, __, payload = service.apply(
                _apply_body(_insert(100)), mode="async"
            )
            assert status == 202
            assert json.loads(payload)["accepted"] is True
            status, __, payload = service.refresh()
            assert status == 200
            assert json.loads(payload)["txn_watermark"] == 1
        finally:
            service.stop()
            warehouse.close()

    def test_error_statuses(self):
        warehouse, service = _service()
        service.start()
        try:
            with pytest.raises(ServiceError) as excinfo:
                service.query("nope")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                service.query("product_sales", version=99)
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                service.apply(b"not json")
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                service.apply(b"{}")
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                service.apply(b"[1]")
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                service.apply(_apply_body(_insert(100)), mode="maybe")
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                service.explain("nope")
            assert excinfo.value.status == 404
        finally:
            service.stop()
            warehouse.close()

    def test_rejected_transaction_maps_to_422(self):
        warehouse, service = _service()
        original = warehouse.backend.commit
        warehouse.backend.commit = lambda: (_ for _ in ()).throw(
            RuntimeError("commit refused")
        )
        service.start()
        try:
            with pytest.raises(ServiceError) as excinfo:
                service.apply(_apply_body(_insert(100)), mode="sync")
            assert excinfo.value.status == 422
            assert "commit refused" in str(excinfo.value)
        finally:
            warehouse.backend.commit = original
            service.stop()
            warehouse.close()

    def test_backpressure_maps_to_503(self):
        warehouse, service = _service(max_pending=1)
        # The queue is deliberately not started: the first submission
        # fills it, the second must be bounced.
        service.apply(_apply_body(_insert(100)), mode="async")
        with pytest.raises(ServiceError) as excinfo:
            service.apply(_apply_body(_insert(101)), mode="async")
        assert excinfo.value.status == 503
        warehouse.close()

    def test_version_gone_maps_to_410(self):
        warehouse, service = _service(retain_versions=1)
        service.start()
        try:
            for sale_id in range(100, 104):
                service.apply(_apply_body(_insert(sale_id)), mode="sync")
            with pytest.raises(ServiceError) as excinfo:
                service.query("product_sales", version=1)
            assert excinfo.value.status == 410
        finally:
            service.stop()
            warehouse.close()

    def test_metrics_and_healthz(self):
        warehouse, service = _service()
        service.start()
        try:
            service.apply(_apply_body(_insert(100)), mode="sync")
            service.query("product_sales")
            __, __, payload = service.healthz()
            health = json.loads(payload)
            assert health["status"] == "ok"
            assert health["views"]["product_sales"]["version"] == 1
            assert health["applied"] == 1
            status, ctype, payload = service.metrics()
            text = payload.decode()
            assert status == 200 and "text/plain" in ctype
            for name in (
                "repro_serving_queue_depth",
                "repro_serving_lag_transactions",
                "repro_serving_txns_applied_total",
                "repro_serving_read_latency_ms_bucket",
            ):
                assert name in text, name
        finally:
            service.stop()
            warehouse.close()


class TestWarehouseServerSocket:
    def test_http_round_trip(self):
        database = paper_database()
        warehouse = Warehouse(database, [product_sales_view(1997)])
        with WarehouseServer(warehouse) as server:
            with urllib.request.urlopen(server.url + "/healthz") as response:
                assert json.loads(response.read())["status"] == "ok"
            request = urllib.request.Request(
                server.url + "/apply?mode=sync",
                data=_apply_body(_insert(100, price=30)),
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(request) as response:
                assert json.loads(response.read())["version"] == 1
            with urllib.request.urlopen(
                server.url + "/query?view=product_sales"
            ) as response:
                body = json.loads(response.read())
            assert body["version"] == 1
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url + "/query?view=nope")
            assert excinfo.value.code == 404
        warehouse.close()

    HOSTILE_REQUESTS = [
        # A negative length must not become rfile.read(-1), which
        # blocks until the client hangs up.
        b"POST /apply HTTP/1.1\r\nHost: t\r\nContent-Length: -1\r\n\r\n",
        b"POST /apply HTTP/1.1\r\nHost: t\r\nContent-Length: abc\r\n\r\n",
        b"POST /apply HTTP/1.1\r\nHost: t\r\nContent-Length: 3\r\n\r\n[1]",
        b"POST /apply HTTP/1.1\r\nHost: t\r\nContent-Length: 1\r\n\r\n5",
        b"GET /query?view=product_sales&version=abc HTTP/1.1\r\nHost: t\r\n\r\n",
        b"GET /events?limit=abc HTTP/1.1\r\nHost: t\r\n\r\n",
        b"GET /events?limit=-3 HTTP/1.1\r\nHost: t\r\n\r\n",
    ]

    def test_hostile_requests_get_400_without_hanging(self):
        database = paper_database()
        warehouse = Warehouse(database, [product_sales_view(1997)])
        with WarehouseServer(warehouse) as server:
            for raw in self.HOSTILE_REQUESTS:
                with socket.create_connection(
                    (server.host, server.port), timeout=5
                ) as sock:
                    sock.sendall(raw)
                    status_line = sock.makefile("rb").readline()
                assert status_line.split()[1:2] == [b"400"], (
                    raw, status_line
                )
        warehouse.close()


def _retail_stream(database, transactions: int, seed: int) -> list[Transaction]:
    """Deterministic, integrity-valid sale inserts/deletes for load runs."""
    rng = random.Random(seed)
    live = [tuple(row) for row in database.relation("sale")]
    next_id = max(row[0] for row in live) + 1
    days = len(database.relation("time"))
    products = len(database.relation("product"))
    stores = len(database.relation("store"))
    stream = []
    for index in range(transactions):
        if index % 4 == 3 and live:
            victim = live.pop(rng.randrange(len(live)))
            stream.append(_delete(victim))
            continue
        row = (
            next_id,
            rng.randint(1, days),
            rng.randint(1, products),
            rng.randint(1, stores),
            rng.randint(5, 60),
        )
        next_id += 1
        live.append(row)
        stream.append(Transaction.of(Delta.insertion("sale", [row])))
    return stream


class TestConcurrentReaders:
    def test_snapshots_stay_consistent_under_write_load(self):
        config = RetailConfig(
            days=6,
            stores=2,
            products=10,
            products_sold_per_day=4,
            transactions_per_product=2,
            start_year=1997,
            seed=11,
        )
        database = build_retail_database(config)
        warehouse = Warehouse(database, [product_sales_view(1997)])
        transactions = _retail_stream(database, transactions=24, seed=3)
        with WarehouseServer(warehouse, max_batch=4) as server:
            report, snapshots = run_load(
                server.url,
                "product_sales",
                transactions,
                readers=3,
                sync_every=6,
            )
        warehouse.close()
        # The shadow replays the same stream over an identical database.
        shadow = SelfMaintainer(
            product_sales_view(1997), build_retail_database(config)
        )
        check_against_shadow(report, snapshots, shadow, transactions)
        assert report.writes_applied == len(transactions)
        assert report.read_errors == 0
        assert report.torn_reads == 0
        assert report.monotonicity_violations == 0
        assert report.replay_mismatches == 0
        assert report.versions_checked >= 1
        assert report.consistent_fraction == 1.0
        # The final watermark covers the whole stream.
        assert max(key[1] for key in snapshots) == len(transactions)


class TestServeCLI:
    def test_serve_requires_a_workload(self, capsys):
        from repro.cli import main

        assert main(["serve"]) == 1
        assert "--retail" in capsys.readouterr().err
