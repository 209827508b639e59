"""The stdlib HTTP front: warehouse-as-a-service.

:class:`WarehouseService` owns the moving parts — the warehouse, one
:class:`~repro.serving.snapshots.VersionedViewStore` per registered
view, and the single-writer
:class:`~repro.serving.applyqueue.ApplyQueue` — and implements each
endpoint as a plain method returning ``(status, content-type, body)``,
so tests can drive the service without sockets.
:class:`WarehouseServer` binds it to a ``ThreadingHTTPServer``.

Endpoints::

    GET  /healthz                  liveness + SLO state + backlog
    GET  /query?view=V[&version=N] snapshot read (rows + version pin)
    POST /apply[?mode=sync|async]  submit a transaction (JSON deltas)
    POST /refresh                  barrier: drain the apply queue
    GET  /explain?view=V           the view's physical plans (text)
    GET  /metrics                  Prometheus text exposition
    GET  /events[?level=L&limit=N] structured event log (JSON)
    GET  /trace[?format=jsonl|text] stitched trace trees

Read isolation: ``/query`` touches only the immutable snapshot chain —
never the maintainer the writer is mutating — so any number of reader
threads proceed while a transaction applies.  ``/metrics`` and
``/explain`` do read writer-side structures; they snapshot under a
short retry loop because the only hazard is a dict growing mid-export
(CPython raises ``RuntimeError``; the next attempt sees a consistent
picture).

Tracing: when the warehouse carries a
:class:`~repro.obs.trace.Tracer`, each request gets a root span
(``http:apply``, ``http:query``, ...) and ``/apply`` hands its span's
``traceparent`` to the queue, so the micro-batch span and every
maintainer transaction it covers join the request's tree
(``/trace`` serves the stitched result).  A rolling
:class:`~repro.obs.health.SLOTracker` folds request outcomes into the
availability/latency state ``/healthz`` reports.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter
from urllib.parse import parse_qs, urlsplit

from repro.engine.deltas import Delta, Transaction
from repro.obs.health import SLOTracker
from repro.obs.log import EVENT_SCHEMA_VERSION, LEVELS
from repro.obs.metrics import MetricsRegistry, READ_LATENCY_MS_BUCKETS
from repro.serving.applyqueue import ApplyQueue, BackpressureError
from repro.serving.snapshots import (
    SnapshotError,
    VersionedViewStore,
    VersionGoneError,
)


class ServiceError(Exception):
    """A client error with an HTTP status attached."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


class WarehouseService:
    """The endpoint logic, independent of the HTTP transport."""

    def __init__(
        self,
        warehouse,
        max_pending: int = 256,
        max_batch: int = 16,
        retain_versions: int = 64,
        sync_timeout: float = 30.0,
        slo: SLOTracker | None = None,
    ):
        self.warehouse = warehouse
        self.registry = MetricsRegistry()
        self._sync_timeout = sync_timeout
        self.tracer = getattr(warehouse, "tracer", None)
        self.events = getattr(warehouse, "events", None)
        self.slo = slo if slo is not None else SLOTracker()
        self._read_latency = self.registry.histogram(
            "repro_serving_read_latency_ms", READ_LATENCY_MS_BUCKETS
        )
        self._read_counter = self.registry.counter("repro_serving_reads_total")
        self.stores: dict[str, VersionedViewStore] = {}
        for name in warehouse.view_names:
            maintainer = warehouse.maintainer(name)
            self.stores[name] = VersionedViewStore(
                name,
                maintainer.reconstructor.output_schema,
                maintainer.group_rows(),
                having=maintainer.view.having,
                retain=retain_versions,
            )
        self.queue = ApplyQueue(
            warehouse,
            self.stores,
            registry=self.registry,
            max_pending=max_pending,
            max_batch=max_batch,
            tracer=self.tracer,
            events=self.events,
        )

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def start(self) -> "WarehouseService":
        self.queue.start()
        return self

    def stop(self) -> None:
        self.queue.stop()

    # ------------------------------------------------------------------
    # Endpoints.
    # ------------------------------------------------------------------

    def healthz(self) -> tuple[int, str, bytes]:
        slo_state = self.slo.state()
        body = {
            "status": "ok" if slo_state["healthy"] else "degraded",
            "slo": slo_state,
            "views": {
                name: {
                    "version": store.latest_version,
                    "txn_watermark": store.latest_watermark,
                }
                for name, store in self.stores.items()
            },
            "queue_depth": self.queue.depth,
            "accepted": self.queue.accepted,
            "applied": self.queue.applied,
            "lag_transactions": max(
                0, self.queue.accepted - self.queue.applied
            ),
            "last_error": self.queue.last_error,
        }
        return 200, "application/json", _json_bytes(body)

    def _begin_request(self, label: str, **attrs):
        """Root span for one HTTP request, or None when untraced."""
        if self.tracer is None:
            return None
        return self.tracer.begin(label, kind="request", **attrs)

    def _finish_request(self, trace, status: str = "ok") -> None:
        if trace is not None:
            self.tracer.finish(trace, status)

    def query(self, view: str, version: int | None = None) -> tuple[int, str, bytes]:
        store = self.stores.get(view)
        if store is None:
            raise ServiceError(404, f"unknown view {view!r}")
        trace = self._begin_request("http:query", view=view)
        started = perf_counter()
        try:
            snapshot = store.snapshot(version)
        except VersionGoneError as error:
            self._finish_request(trace, "error")
            raise ServiceError(410, str(error)) from None
        except SnapshotError as error:
            self._finish_request(trace, "error")
            raise ServiceError(404, str(error)) from None
        relation = snapshot.relation()
        body = {
            "view": view,
            "version": snapshot.version,
            "txn_watermark": snapshot.txn_watermark,
            "columns": list(snapshot.columns),
            "rows": [list(row) for row in relation.rows],
        }
        payload = _json_bytes(body)
        elapsed_ms = (perf_counter() - started) * 1000.0
        self._read_latency.observe(elapsed_ms)
        self._read_counter.inc()
        self.slo.record(True, elapsed_ms)
        if trace is not None:
            trace.root.rows_out = len(body["rows"])
        self._finish_request(trace)
        return 200, "application/json", payload

    def apply(self, payload: bytes, mode: str = "sync") -> tuple[int, str, bytes]:
        if mode not in ("sync", "async"):
            raise ServiceError(400, f"mode must be sync or async, not {mode!r}")
        transaction = _parse_transaction(payload)
        trace = self._begin_request(
            "http:apply",
            mode=mode,
            rows=sum(len(d.inserted) + len(d.deleted) for d in transaction),
        )
        started = perf_counter()
        ctx = None if trace is None else trace.context()
        try:
            ticket = self.queue.submit(transaction, ctx=ctx)
        except BackpressureError as error:
            self.slo.record(False, (perf_counter() - started) * 1000.0)
            self._finish_request(trace, "error")
            raise ServiceError(503, str(error)) from None
        if mode == "async":
            self.slo.record(True, (perf_counter() - started) * 1000.0)
            self._finish_request(trace)
            body = {"seq": ticket.seq, "accepted": True}
            return 202, "application/json", _json_bytes(body)
        try:
            ticket.wait(self._sync_timeout)
        except TimeoutError as error:
            self.slo.record(False, (perf_counter() - started) * 1000.0)
            self._finish_request(trace, "error")
            raise ServiceError(504, str(error)) from None
        except Exception as error:
            self.slo.record(False, (perf_counter() - started) * 1000.0)
            self._finish_request(trace, "error")
            raise ServiceError(
                422, f"transaction rejected: {type(error).__name__}: {error}"
            ) from None
        self.slo.record(True, (perf_counter() - started) * 1000.0)
        self._finish_request(trace)
        body = {
            "seq": ticket.seq,
            "version": ticket.version,
            "txn_watermark": ticket.watermark,
        }
        return 200, "application/json", _json_bytes(body)

    def refresh(self) -> tuple[int, str, bytes]:
        try:
            ticket = self.queue.flush(self._sync_timeout)
        except TimeoutError as error:
            raise ServiceError(504, str(error)) from None
        body = {"version": ticket.version, "txn_watermark": ticket.watermark}
        return 200, "application/json", _json_bytes(body)

    def explain(self, view: str | None = None) -> tuple[int, str, bytes]:
        if view is not None and view not in self.stores:
            raise ServiceError(404, f"unknown view {view!r}")
        text = _retry_on_runtime_error(self.warehouse.explain_plans)
        return 200, "text/plain; charset=utf-8", text.encode()

    def metrics(self) -> tuple[int, str, bytes]:
        def scrape() -> str:
            merged = self.warehouse.metrics_registry()
            merged.merge(self.registry)
            return merged.render_prometheus()

        text = _retry_on_runtime_error(scrape)
        return 200, "text/plain; version=0.0.4; charset=utf-8", text.encode()

    def export_events(
        self, level: str | None = None, limit: int | None = None
    ) -> tuple[int, str, bytes]:
        """The warehouse's structured event log as JSON."""
        if self.events is None:
            raise ServiceError(404, "no event log attached")
        if level is not None and level not in LEVELS:
            raise ServiceError(
                400, f"level must be one of {', '.join(LEVELS)}"
            )
        try:
            selected = self.events.events(level=level, limit=limit)
        except ValueError as error:
            raise ServiceError(400, str(error)) from None
        body = {
            "schema": EVENT_SCHEMA_VERSION,
            "totals": self.events.totals,
            "events": [event.to_dict() for event in selected],
        }
        return 200, "application/json", _json_bytes(body)

    def export_traces(self, fmt: str = "jsonl") -> tuple[int, str, bytes]:
        """Finished traces, stitched into connected trees — ``jsonl``
        (one span record per line) or ``text`` (rendered flame trees)."""
        if self.tracer is None:
            raise ServiceError(404, "no tracer attached")
        if fmt not in ("jsonl", "text"):
            raise ServiceError(400, f"format must be jsonl or text, not {fmt!r}")
        stitched = self.tracer.stitched()
        if fmt == "text":
            text = "\n\n".join(trace.render() for trace in stitched)
            return 200, "text/plain; charset=utf-8", text.encode()
        lines = [
            json.dumps(record, sort_keys=True)
            for trace in stitched
            for record in trace.to_dicts()
        ]
        body = ("\n".join(lines) + "\n") if lines else ""
        return 200, "application/jsonl", body.encode()


def _retry_on_runtime_error(fn, attempts: int = 5):
    """Run ``fn``, retrying the rare 'dict changed size during
    iteration' race between a scrape and the writer thread."""
    for attempt in range(attempts):
        try:
            return fn()
        except RuntimeError:
            if attempt == attempts - 1:
                raise
    raise AssertionError("unreachable")  # pragma: no cover


def _json_bytes(value) -> bytes:
    return json.dumps(value).encode()


def _parse_transaction(payload: bytes) -> Transaction:
    try:
        body = json.loads(payload or b"{}")
    except ValueError as error:  # JSONDecodeError or a bad encoding
        raise ServiceError(400, f"invalid JSON: {error}") from None
    if not isinstance(body, dict):
        raise ServiceError(400, "body must be a JSON object")
    deltas = body.get("deltas")
    if not isinstance(deltas, list) or not deltas:
        raise ServiceError(400, "body must carry a non-empty 'deltas' list")
    parsed = []
    for entry in deltas:
        if not isinstance(entry, dict) or "table" not in entry:
            raise ServiceError(400, "each delta needs a 'table'")
        try:
            parsed.append(
                Delta(
                    str(entry["table"]),
                    tuple(tuple(r) for r in entry.get("inserted", ())),
                    tuple(tuple(r) for r in entry.get("deleted", ())),
                )
            )
        except TypeError as error:
            raise ServiceError(400, f"bad delta rows: {error}") from None
    try:
        return Transaction.of(*parsed)
    except ValueError as error:
        raise ServiceError(400, str(error)) from None


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the service; one instance per request."""

    service: WarehouseService  # installed by WarehouseServer
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        url = urlsplit(self.path)
        params = parse_qs(url.query)
        try:
            if url.path == "/healthz":
                self._reply(*self.service.healthz())
            elif url.path == "/metrics":
                self._reply(*self.service.metrics())
            elif url.path == "/query":
                view = _param(params, "view")
                pinned = _int_param(params, "version")
                self._reply(*self.service.query(view, pinned))
            elif url.path == "/explain":
                view = _param(params, "view", optional=True)
                self._reply(*self.service.explain(view))
            elif url.path == "/events":
                level = _param(params, "level", optional=True)
                limit = _int_param(params, "limit")
                self._reply(*self.service.export_events(level, limit))
            elif url.path == "/trace":
                fmt = _param(params, "format", optional=True) or "jsonl"
                self._reply(*self.service.export_traces(fmt))
            else:
                self._error(404, f"no such endpoint: {url.path}")
        except ServiceError as error:
            self._error(error.status, str(error))
        except Exception as error:  # pragma: no cover - defensive boundary
            self._error(500, f"{type(error).__name__}: {error}")

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        url = urlsplit(self.path)
        params = parse_qs(url.query)
        try:
            payload = self._read_body()
            if url.path == "/apply":
                mode = _param(params, "mode", optional=True) or "sync"
                self._reply(*self.service.apply(payload, mode))
            elif url.path == "/refresh":
                self._reply(*self.service.refresh())
            else:
                self._error(404, f"no such endpoint: {url.path}")
        except ServiceError as error:
            self._error(error.status, str(error))
        except Exception as error:  # pragma: no cover - defensive boundary
            self._error(500, f"{type(error).__name__}: {error}")

    # ------------------------------------------------------------------

    def _read_body(self) -> bytes:
        """The request body.  A Content-Length that is not a
        non-negative integer is a client error, and the connection
        closes after the reply because the body's end is unknown."""
        raw = self.headers.get("Content-Length", "0")
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            self.close_connection = True
            raise ServiceError(400, f"bad Content-Length {raw!r}")
        return self.rfile.read(length) if length else b""

    def _reply(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str) -> None:
        self._reply(
            status, "application/json", _json_bytes({"error": message})
        )

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence the default stderr-per-request noise."""


def _param(params: dict, name: str, optional: bool = False) -> str | None:
    values = params.get(name)
    if not values:
        if optional:
            return None
        raise ServiceError(400, f"missing query parameter {name!r}")
    return values[0]


def _int_param(params: dict, name: str) -> int | None:
    value = _param(params, name, optional=True)
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        raise ServiceError(
            400, f"query parameter {name!r} must be an integer"
        ) from None


class WarehouseServer:
    """A :class:`WarehouseService` bound to a ``ThreadingHTTPServer``.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`port`/:attr:`url`).  Use as a context manager::

        with WarehouseServer(warehouse) as server:
            urllib.request.urlopen(server.url + "/healthz")
    """

    def __init__(
        self,
        warehouse,
        host: str = "127.0.0.1",
        port: int = 0,
        **service_options,
    ):
        self.service = WarehouseService(warehouse, **service_options)
        handler = type("BoundHandler", (_Handler,), {"service": self.service})
        self._http = ThreadingHTTPServer((host, port), handler)
        self._http.daemon_threads = True
        self.host, self.port = self._http.server_address[:2]
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "WarehouseServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self.service.start()
        self._thread = threading.Thread(
            target=self._http.serve_forever,
            name="repro-serving-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._http.shutdown()
        self._thread.join(10)
        self._thread = None
        self._http.server_close()
        self.service.stop()

    def serve_forever(self) -> None:
        """Run in the calling thread until interrupted (the CLI path)."""
        self.service.start()
        try:
            self._http.serve_forever()
        finally:
            self._http.server_close()
            self.service.stop()

    def __enter__(self) -> "WarehouseServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
