"""The operational observability layer: events, SLOs, doctor, top.

Complements ``test_obs.py`` (metrics/tracing primitives) with the
PR's operational surface: the structured :class:`EventLog`, rolling
:class:`SLOTracker` budgets, ``repro doctor`` self-checks, the
``repro top`` exposition parser/renderer, trace schema v2 (with v1
compatibility), trace-context propagation across the apply queue, and
thread-safety of the metrics registry under concurrent scrape load.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.health import SLOTracker
from repro.obs.log import (
    EVENT_SCHEMA_VERSION,
    EventLog,
    correlate,
    read_events_jsonl,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.top import (
    Dashboard,
    histogram_quantile,
    metric_value,
    parse_prometheus,
)
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    Trace,
    Tracer,
    format_traceparent,
    parse_traceparent,
    read_trace_jsonl,
    stitch_traces,
)
from repro.engine.deltas import Delta, Transaction
from repro.serving.applyqueue import ApplyQueue, BackpressureError
from repro.serving.server import WarehouseService
from repro.warehouse.doctor import plant_index_corruption, run_doctor
from repro.warehouse.persistence import save_warehouse
from repro.warehouse.warehouse import Warehouse
from repro.workloads.retail import product_sales_view

from tests.helpers import assert_matches_recomputation, paper_database


def _insert(sale_id, time=1, product=1, store=1, price=10) -> Transaction:
    return Transaction.of(
        Delta.insertion("sale", [(sale_id, time, product, store, price)])
    )


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


def _warehouse(**kwargs) -> Warehouse:
    return Warehouse(paper_database(), [product_sales_view(1997)], **kwargs)


class FakeClock:
    """A deterministic, manually advanced clock for window tests."""

    def __init__(self, start: float = 1000.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Event log.
# ---------------------------------------------------------------------------


class TestEventLog:
    def test_level_floor_drops_cheaply(self):
        log = EventLog(min_level="warn")
        assert log.debug("a") is None
        assert log.info("b") is None
        assert log.warn("c") is not None
        assert log.error("d") is not None
        assert len(log) == 2
        assert log.totals == {"warn": 1, "error": 1}

    def test_unknown_level_rejected(self):
        log = EventLog()
        with pytest.raises(ValueError):
            log.emit("fatal", "boom")
        with pytest.raises(ValueError):
            EventLog(min_level="loud")

    def test_ring_eviction_keeps_totals(self):
        log = EventLog(capacity=4)
        for index in range(10):
            log.info("tick", n=index)
        assert len(log) == 4
        # Totals survive eviction; the ring holds only the newest four.
        assert log.totals == {"info": 10}
        assert [event.fields["n"] for event in log.events()] == [6, 7, 8, 9]

    def test_filters_level_name_prefix_and_limit(self):
        log = EventLog()
        log.debug("txn.begin")
        log.info("txn.commit")
        log.warn("queue.backpressure")
        log.error("txn.rollback")
        assert [e.name for e in log.events(level="warn")] == [
            "queue.backpressure",
            "txn.rollback",
        ]
        assert [e.name for e in log.events(name="txn.")] == [
            "txn.begin",
            "txn.commit",
            "txn.rollback",
        ]
        assert [e.name for e in log.events(limit=1)] == ["txn.rollback"]
        assert log.events(limit=0) == []
        with pytest.raises(ValueError, match="non-negative"):
            log.events(limit=-3)

    def test_jsonl_round_trip(self, tmp_path):
        clock = FakeClock(123.0)
        log = EventLog(clock=clock)
        log.info("checkpoint.saved", ctx="00-" + "a" * 32 + "-" + "0" * 16 + "-01",
                 path="x.ckpt", rows=7)
        clock.advance(1.0)
        log.error("fault.injected", phase="aux-apply")
        path = tmp_path / "events.jsonl"
        log.write_jsonl(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert all(r["schema"] == EVENT_SCHEMA_VERSION for r in records)
        loaded = read_events_jsonl(path)
        assert [(e.seq, e.level, e.name) for e in loaded] == [
            (0, "info", "checkpoint.saved"),
            (1, "error", "fault.injected"),
        ]
        assert loaded[0].fields == {"path": "x.ckpt", "rows": 7}
        assert loaded[0].ts == pytest.approx(123.0)
        assert loaded[1].ctx is None

    def test_correlate_groups_by_trace_id(self):
        log = EventLog()
        ctx_a = format_traceparent("a" * 32, 0)
        ctx_a2 = format_traceparent("a" * 32, 5)
        ctx_b = format_traceparent("b" * 32, 1)
        log.info("one", ctx=ctx_a)
        log.info("two", ctx=ctx_b)
        log.info("three", ctx=ctx_a2)
        log.info("four")
        grouped = correlate(log.events())
        assert [e.name for e in grouped["a" * 32]] == ["one", "three"]
        assert [e.name for e in grouped["b" * 32]] == ["two"]
        assert [e.name for e in grouped[""]] == ["four"]


# ---------------------------------------------------------------------------
# SLO tracking.
# ---------------------------------------------------------------------------


class TestSLOTracker:
    def test_empty_window_is_healthy(self):
        tracker = SLOTracker(clock=FakeClock())
        state = tracker.state()
        assert state["healthy"] and state["requests"] == 0
        assert state["p99_ms"] is None and state["breached"] == []

    def test_availability_breach(self):
        tracker = SLOTracker(availability_target=0.9, clock=FakeClock())
        for __ in range(8):
            tracker.record(True, 1.0)
        tracker.record(False, 1.0)
        tracker.record(False, 1.0)
        state = tracker.state()
        assert state["availability"] == pytest.approx(0.8)
        assert state["breached"] == ["availability"]
        assert not tracker.healthy

    def test_latency_breach(self):
        tracker = SLOTracker(p99_budget_ms=50.0, clock=FakeClock())
        for __ in range(100):
            tracker.record(True, 400.0)
        state = tracker.state()
        assert state["p99_ms"] > 50.0
        assert state["breached"] == ["latency_p99"]

    def test_slow_minute_ages_out(self):
        clock = FakeClock()
        tracker = SLOTracker(
            window_s=60.0, buckets=6, availability_target=0.99, clock=clock
        )
        for __ in range(10):
            tracker.record(False, 500.0)
        assert not tracker.state()["healthy"]
        clock.advance(61.0)  # the bad bucket falls out of the window
        tracker.record(True, 1.0)
        state = tracker.state()
        assert state["healthy"] and state["requests"] == 1


# ---------------------------------------------------------------------------
# Doctor self-checks.
# ---------------------------------------------------------------------------


class TestDoctor:
    def test_healthy_warehouse_exits_zero(self):
        warehouse = _warehouse()
        warehouse.apply(_insert(100))
        report = run_doctor(warehouse)
        assert report.status == "healthy" and report.exit_code == 0
        names = [check.name for check in report.checks]
        assert "index-consistency:product_sales" in names
        assert "event-log" in names
        by_name = {check.name: check for check in report.checks}
        assert by_name["checkpoint-staleness"].status == "skip"
        assert "healthy (exit 0)" in report.render()
        warehouse.close()

    def test_planted_corruption_is_detected(self):
        # Pin the memory backend: only in-process RowIndexes can be
        # planted (columnar keeps rid indexes, not RowIndexes).
        warehouse = _warehouse(backend="memory")
        warehouse.apply(_insert(100))
        assert plant_index_corruption(warehouse)
        report = run_doctor(warehouse)
        assert report.status == "unhealthy" and report.exit_code == 2
        failing = [c for c in report.checks if c.status == "fail"]
        assert failing and failing[0].name.startswith("index-consistency")
        assert report.to_dict()["exit_code"] == 2
        warehouse.close()

    def test_checkpoint_missing_fails(self, tmp_path):
        warehouse = _warehouse()
        report = run_doctor(warehouse, checkpoint_path=tmp_path / "nope.ckpt")
        by_name = {check.name: check for check in report.checks}
        assert by_name["checkpoint-staleness"].status == "fail"
        assert report.exit_code == 2
        warehouse.close()

    def test_malformed_checkpoint_fails(self, tmp_path):
        warehouse = _warehouse()
        path = tmp_path / "f.json"
        path.write_text("[1]")
        report = run_doctor(warehouse, checkpoint_path=path)
        by_name = {check.name: check for check in report.checks}
        assert by_name["checkpoint-staleness"].status == "fail"
        assert report.status == "unhealthy" and report.exit_code == 2
        warehouse.close()

    def test_checkpoint_fresh_then_stale(self, tmp_path):
        warehouse = _warehouse()
        warehouse.apply(_insert(100))
        path = tmp_path / "wh.ckpt"
        save_warehouse(warehouse, path)
        fresh = run_doctor(warehouse, checkpoint_path=path)
        by_name = {check.name: check for check in fresh.checks}
        assert by_name["checkpoint-staleness"].status == "ok"
        assert fresh.exit_code == 0

        import time as _time

        stale = run_doctor(
            warehouse,
            checkpoint_path=path,
            max_checkpoint_age_s=10.0,
            clock=lambda: _time.time() + 3600.0,
        )
        by_name = {check.name: check for check in stale.checks}
        assert by_name["checkpoint-staleness"].status == "warn"
        assert stale.exit_code == 1 and stale.status == "degraded"
        warehouse.close()

    def test_error_events_degrade_the_report(self):
        warehouse = _warehouse()
        warehouse.events.error("fault.injected", phase="validate")
        report = run_doctor(warehouse)
        by_name = {check.name: check for check in report.checks}
        assert by_name["event-log"].status == "warn"
        assert by_name["event-log"].details["error_events"] == 1
        assert report.exit_code == 1
        warehouse.close()


# ---------------------------------------------------------------------------
# Trace schema v2 and composition.
# ---------------------------------------------------------------------------


class TestTraceSchema:
    def test_traceparent_round_trip(self):
        ctx = format_traceparent("ab" * 16, 7)
        assert parse_traceparent(ctx) == ("ab" * 16, 7)
        for bad in ("", "00-zz", "00-abc-def-01", "garbage"):
            with pytest.raises(ValueError):
                parse_traceparent(bad)

    def test_v2_records_carry_schema_and_ctx(self):
        trace = Trace(3, "txn:v")
        with trace.span("local-reduce", kind="phase"):
            trace.instant("probe", kind="plan")
        trace.finish()
        records = trace.to_dicts()
        assert all(r["schema"] == TRACE_SCHEMA_VERSION for r in records)
        assert all(r["ctx"] == trace.hex_id for r in records)
        by_name = {r["name"]: r for r in records}
        assert by_name["probe"]["parent"] == by_name["local-reduce"]["span"]
        assert all("shard" not in r for r in records)

    def test_v1_records_still_load(self, tmp_path):
        # A v1 export: no schema, no ctx fields.
        v1 = [
            {
                "trace": 0, "span": 0, "parent": None, "name": "txn:v",
                "kind": "transaction", "phase": "txn:v", "start_ms": 0.0,
                "duration_ms": 5.0, "rows_in": None, "rows_out": None,
                "index_probes": 0, "cache_hit": False, "error": False,
                "attrs": {"status": "ok"},
            },
            {
                "trace": 0, "span": 1, "parent": 0, "name": "coalesce",
                "kind": "phase", "phase": "coalesce", "start_ms": 0.1,
                "duration_ms": 1.0, "rows_in": 4, "rows_out": 2,
                "index_probes": 0, "cache_hit": False, "error": False,
                "attrs": {},
            },
        ]
        path = tmp_path / "v1.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in v1) + "\n")
        traces = read_trace_jsonl(path)
        assert len(traces) == 1
        trace = traces[0]
        assert trace.label == "txn:v" and trace.status == "ok"
        assert [s.name for s in trace.spans] == ["txn:v", "coalesce"]
        # Re-export stamps the current schema.
        assert trace.to_dicts()[0]["schema"] == TRACE_SCHEMA_VERSION

    def test_v2_records_with_a_shard_key_still_load(self, tmp_path):
        # Older v2 exports stamp ``"shard": null`` on every span.
        ctx = "c" * 32
        records = [
            {
                "schema": 2, "trace": 5, "ctx": ctx, "span": 0,
                "parent": None, "name": "txn:v", "kind": "transaction",
                "phase": "txn:v", "start_ms": 0.0, "duration_ms": 4.0,
                "rows_in": None, "rows_out": None, "index_probes": 0,
                "cache_hit": False, "error": False, "shard": None,
                "attrs": {"status": "ok"},
            },
            {
                "schema": 2, "trace": 5, "ctx": ctx, "span": 1,
                "parent": 0, "name": "local-reduce", "kind": "phase",
                "phase": "local-reduce", "start_ms": 0.5,
                "duration_ms": 2.0, "rows_in": 8, "rows_out": 3,
                "index_probes": 2, "cache_hit": True, "error": False,
                "shard": None, "attrs": {},
            },
        ]
        path = tmp_path / "parent-v2.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        (trace,) = read_trace_jsonl(path)
        assert trace.hex_id == ctx and trace.status == "ok"
        assert [(s.span_id, s.parent_id, s.name) for s in trace.spans] == [
            (0, None, "txn:v"), (1, 0, "local-reduce"),
        ]
        assert trace.spans[1].attrs == {}
        # Round trip: re-export drops the key and reloads identically.
        exported = trace.to_dicts()
        assert all("shard" not in r for r in exported)
        again = tmp_path / "again.jsonl"
        again.write_text("\n".join(json.dumps(r) for r in exported) + "\n")
        (reloaded,) = read_trace_jsonl(again)
        assert reloaded.to_dicts() == exported

    def test_v2_jsonl_round_trip_groups_by_ctx(self, tmp_path):
        tracer = Tracer()
        for label in ("txn:a", "txn:b"):
            trace = tracer.begin(label)
            with trace.span("coalesce", kind="phase"):
                pass
            tracer.finish(trace)
        path = tmp_path / "v2.jsonl"
        tracer.export_jsonl(path)
        loaded = read_trace_jsonl(path)
        assert sorted(t.label for t in loaded) == ["txn:a", "txn:b"]
        assert all(len(t.spans) == 2 for t in loaded)
        assert {t.hex_id for t in loaded} == {
            t.hex_id for t in tracer.traces
        }

    def test_graft_remaps_ids_parents_and_labels(self):
        parent = Trace(0, "stage")
        child = Trace(0, "txn:v")
        with child.span("local-reduce", kind="phase"):
            with child.span("inner", kind="plan"):
                pass
        child.finish()
        with parent.span("batch", kind="queue") as anchor:
            id_map = parent.graft(child.to_dicts())
        parent.finish()
        ids = {span.span_id for span in parent.spans}
        assert len(ids) == len(parent.spans)  # no collisions after remap
        grafted_root = parent.spans[id_map[0]]
        assert grafted_root.parent_id == anchor.span_id
        # Inner parent/child structure and labels survive the remap.
        phase = parent.spans[id_map[1]]
        inner = parent.spans[id_map[2]]
        assert phase.parent_id == grafted_root.span_id
        assert inner.parent_id == phase.span_id
        assert [grafted_root.name, phase.name, inner.name] == [
            "txn:v", "local-reduce", "inner"
        ]
        assert (phase.kind, inner.kind) == ("phase", "plan")

    def test_stitch_traces_builds_one_tree(self):
        tracer = Tracer()
        request = tracer.begin("http:apply", kind="request")
        batch = tracer.begin(
            "apply-batch", kind="queue", parent=request.context()
        )
        txn = tracer.begin("txn:v", parent=batch.context())
        tracer.finish(txn)
        tracer.finish(batch)
        tracer.finish(request)
        roots = stitch_traces(tracer.traces)
        assert len(roots) == 1
        tree = roots[0]
        assert tree.root.name == "http:apply"
        names = [span.name for span in tree.spans]
        assert "apply-batch" in names and "txn:v" in names
        ids = {span.span_id for span in tree.spans}
        orphans = [
            s for s in tree.spans
            if s.parent_id is not None and s.parent_id not in ids
        ]
        assert not orphans
        # Stitching copies: the originals keep their own roots.
        assert len(tracer.traces) == 3

    def test_parent_linked_trace_is_always_sampled(self):
        tracer = Tracer(sample_every=1000)
        tracer.finish(tracer.begin("warmup"))  # consumes the head sample
        ctx = format_traceparent("c" * 32, 0)
        linked = tracer.begin("child", parent=ctx)
        assert linked is not None and linked.sampled
        shadow = tracer.begin("unlinked")
        assert shadow is not None and not shadow.sampled
        tracer.finish(shadow)  # clean shadow: dropped
        tracer.finish(linked)
        assert [t.label for t in tracer.traces] == ["warmup", "child"]


# ---------------------------------------------------------------------------
# Metrics registry thread safety.
# ---------------------------------------------------------------------------


class TestMetricsThreadSafety:
    def test_concurrent_writers_and_scrapes_lose_nothing(self):
        registry = MetricsRegistry()
        counter = registry.counter("ops_total")
        labeled = registry.counter("shard_rows_total", shard="0")
        hist = registry.histogram("latency_ms", (1.0, 10.0, 100.0))
        threads, writers, per_writer = [], 6, 400
        stop = threading.Event()

        def write():
            for index in range(per_writer):
                counter.inc()
                labeled.inc(2)
                hist.observe(float(index % 200))

        def scrape():
            while not stop.is_set():
                registry.render_prometheus()
                registry.snapshot()
                merged = MetricsRegistry()
                merged.merge(registry)

        for __ in range(writers):
            threads.append(threading.Thread(target=write))
        scrapers = [threading.Thread(target=scrape) for __ in range(2)]
        for thread in scrapers:
            thread.start()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        for thread in scrapers:
            thread.join()

        assert counter.value == writers * per_writer
        assert labeled.value == writers * per_writer * 2
        assert hist.count == writers * per_writer
        assert sum(hist.bucket_counts) == hist.count
        merged = MetricsRegistry()
        merged.merge(registry)
        assert merged.counter("ops_total").value == counter.value


# ---------------------------------------------------------------------------
# Trace propagation across the apply queue.
# ---------------------------------------------------------------------------


class TestQueuePropagation:
    def test_batch_parents_first_request_and_links_rest(self):
        warehouse = _warehouse(tracer=Tracer())
        stores: dict = {}
        queue = ApplyQueue(
            warehouse, stores, tracer=warehouse.tracer,
            events=warehouse.events,
        )
        ctx_a = format_traceparent("a" * 32, 1)
        ctx_b = format_traceparent("b" * 32, 2)
        queue.submit(_insert(100), ctx=ctx_a)
        queue.submit(_insert(101, time=2), ctx=ctx_b)
        queue.start()
        try:
            queue.flush()
        finally:
            queue.stop()
            warehouse.close()
        batches = [
            t for t in warehouse.tracer.traces if t.label == "apply-batch"
        ]
        assert len(batches) == 1
        batch = batches[0]
        assert batch.root.attrs["parent_ctx"] == ctx_a
        assert batch.root.attrs["links"] == [ctx_b]
        assert batch.root.attrs["txns"] == 2
        # The maintainer transaction joined the batch tree via the
        # worker thread's ambient context.
        txns = [
            t for t in warehouse.tracer.traces
            if t.label.startswith("txn:")
        ]
        assert txns and all(
            parse_traceparent(t.root.attrs["parent_ctx"])[0] == batch.hex_id
            for t in txns
        )
        applied = warehouse.events.events(name="batch.applied")
        assert applied and applied[-1].fields["txns"] == 2

    def test_backpressure_emits_event(self):
        events = EventLog()
        queue = ApplyQueue(None, {}, events=events, max_pending=1)
        queue.submit(_insert(100))
        with pytest.raises(BackpressureError):
            queue.submit(_insert(101))
        warned = events.events(name="queue.backpressure")
        assert warned and warned[-1].fields["max_pending"] == 1


# ---------------------------------------------------------------------------
# Serving: one request, one connected tree.
# ---------------------------------------------------------------------------


class TestServingConnectedTree:
    def test_served_apply_renders_one_connected_tree(self):
        warehouse = _warehouse(tracer=Tracer(), backend="memory")
        service = WarehouseService(warehouse)
        service.start()
        try:
            status, __, __ = service.apply(
                _apply_body(_insert(100, price=30)), mode="sync"
            )
            assert status == 200
        finally:
            service.stop()
            warehouse.close()
        roots = [
            tree for tree in stitch_traces(warehouse.tracer.traces)
            if tree.root.name == "http:apply"
        ]
        assert len(roots) == 1
        tree = roots[0]
        names = [span.name for span in tree.spans]
        assert "apply-batch" in names
        assert any(name.startswith("txn:") for name in names)
        ids = {span.span_id for span in tree.spans}
        assert all(
            span.parent_id in ids
            for span in tree.spans
            if span.parent_id is not None
        ), "stitched tree has orphan spans"
        rendered = tree.render()
        assert "http:apply" in rendered and "apply-batch" in rendered

    def test_events_correlate_with_the_request_trace(self):
        warehouse = _warehouse(tracer=Tracer())
        service = WarehouseService(warehouse)
        service.start()
        try:
            service.apply(_apply_body(_insert(100)), mode="sync")
        finally:
            service.stop()
            warehouse.close()
        request = next(
            t for t in warehouse.tracer.traces if t.label == "http:apply"
        )
        grouped = correlate(warehouse.events.events())
        batch_hex = next(
            t.hex_id for t in warehouse.tracer.traces
            if t.label == "apply-batch"
        )
        assert any(
            e.name == "batch.applied" for e in grouped.get(batch_hex, [])
        )
        # And the batch trace itself descends from the request.
        batch = next(
            t for t in warehouse.tracer.traces if t.label == "apply-batch"
        )
        assert (
            parse_traceparent(batch.root.attrs["parent_ctx"])[0]
            == request.hex_id
        )

    def test_healthz_and_export_endpoints(self):
        warehouse = _warehouse(tracer=Tracer())
        service = WarehouseService(warehouse)
        service.start()
        try:
            service.apply(_apply_body(_insert(100)), mode="sync")
            status, __, payload = service.healthz()
            body = json.loads(payload)
            assert status == 200 and body["status"] == "ok"
            assert body["slo"]["healthy"] is True
            assert body["lag_transactions"] == 0

            status, __, payload = service.export_events()
            events_body = json.loads(payload)
            assert status == 200
            assert events_body["schema"] == EVENT_SCHEMA_VERSION
            assert any(
                e["name"] == "batch.applied" for e in events_body["events"]
            )
            with pytest.raises(Exception) as excinfo:
                service.export_events(level="loud")
            assert getattr(excinfo.value, "status", None) == 400

            status, ctype, payload = service.export_traces()
            assert status == 200 and "jsonl" in ctype
            records = [
                json.loads(line)
                for line in payload.decode().splitlines()
                if line
            ]
            assert any(r["name"] == "http:apply" for r in records)
            status, __, payload = service.export_traces(fmt="text")
            assert status == 200 and b"apply-batch" in payload
        finally:
            service.stop()
            warehouse.close()


# ---------------------------------------------------------------------------
# The top dashboard (offline: parser + renderer only).
# ---------------------------------------------------------------------------


EXPOSITION = """\
# HELP repro_serving_txns_applied_total txns
# TYPE repro_serving_txns_applied_total counter
repro_serving_txns_applied_total 40
repro_serving_batches_total 10
repro_serving_reads_total 100
repro_serving_queue_depth 3
repro_serving_lag_transactions 2
repro_serving_version 10
repro_serving_read_latency_ms_bucket{le="1"} 50
repro_serving_read_latency_ms_bucket{le="10"} 90
repro_serving_read_latency_ms_bucket{le="+Inf"} 100
repro_serving_read_latency_ms_count 100
repro_maintenance_events_total{event="rollbacks"} 4
repro_maintenance_events_total{event="recomputations"} 1
with_escapes{name="a\\"b\\\\c\\nd"} 1
"""


class TestTopParsing:
    def test_parse_prometheus(self):
        metrics = parse_prometheus(EXPOSITION)
        assert metric_value(metrics, "repro_serving_txns_applied_total") == 40
        assert metric_value(metrics, "missing", default=7.0) == 7.0
        assert (
            metric_value(
                metrics, "repro_maintenance_events_total", event="rollbacks"
            )
            == 4
        )
        # Label-subset sum: no label filter sums every series.
        assert metric_value(metrics, "repro_maintenance_events_total") == 5
        labels = metrics["with_escapes"][0][0]
        assert labels["name"] == 'a"b\\c\nd'

    def test_histogram_quantile(self):
        metrics = parse_prometheus(EXPOSITION)
        p50 = histogram_quantile(
            metrics, "repro_serving_read_latency_ms", 0.5
        )
        assert p50 == pytest.approx(1.0)
        p99 = histogram_quantile(
            metrics, "repro_serving_read_latency_ms", 0.99
        )
        # 99th request sits in the overflow bucket: report the top
        # finite bound.
        assert p99 == pytest.approx(10.0)
        assert histogram_quantile(metrics, "absent", 0.5) is None

    def test_render_rates_between_frames(self):
        dashboard = Dashboard("http://example.invalid")
        metrics = parse_prometheus(EXPOSITION)
        health = {
            "status": "ok",
            "slo": {"availability": 1.0, "p99_ms": 2.0, "breached": []},
        }
        first = dashboard.render(metrics, health, interval=2.0)
        assert "status=ok" in first
        assert "0.0 txn/s" in first  # no previous frame yet
        later = parse_prometheus(
            EXPOSITION.replace(
                "repro_serving_txns_applied_total 40",
                "repro_serving_txns_applied_total 60",
            )
        )
        second = dashboard.render(later, health, interval=2.0)
        assert "10.0 txn/s" in second  # (60-40)/2s
        assert "breached=none" in second
