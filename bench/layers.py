"""The traced pass: per-layer metrics, measured from outside.

Three sources, none inside the program: (a) the benchmark's own spans
around every call it makes into a public function, (b) direct calls
into single layers on the same generated inputs, (c) the program's
already-public ``perf.snapshot()`` timers and counters and the server's
``/metrics``.  A layer that can no longer be measured yields 0 and an
entry in ``missing``, never a failed run.
"""

from __future__ import annotations

import gc
import json
import shutil
import statistics
from time import perf_counter

import harness
import inprocess
import inputs
import served
from metrics import PER_LAYER
from repro.backends import BACKEND_NAMES, resolve_backend_name
from repro.core.derivation import derive_auxiliary_views
from repro.core.maintenance import SelfMaintainer
from repro.obs import Tracer
from repro.obs.metrics import DELTA_ROWS_BUCKETS
from repro.perf import PHASES
from repro.serving import VersionedViewStore, WarehouseService
from repro.sql.ddl import parse_schema
from repro.warehouse.persistence import load_warehouse, save_warehouse
from repro.warehouse.warehouse import Warehouse
from stats import percentile, second_best

PHASE_METRICS = tuple(phase for phase in PHASES if phase != "rollback")
REDUCED_AWAY = (
    "rows_coalesced_away", "rows_locally_reduced_away",
    "rows_join_reduced_away",
)


class Spans:
    """Spans kept in memory: ``[id, name, start, end, parent, round]``."""

    def __init__(self):
        self.records: list[list] = []
        self._stack: list[int] = []
        self.round: int | None = None

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time its child spans cover."""
        own = [record[3] - record[2] for record in self.records]
        for record in self.records:
            if record[4] is not None:
                own[record[4]] -= record[3] - record[2]
        totals: dict[str, float] = {}
        for record, seconds in zip(self.records, own):
            totals[record[1]] = totals.get(record[1], 0.0) + seconds
        return totals

    def total(self, name: str) -> float:
        return sum(r[3] - r[2] for r in self.records if r[1] == name)

    def write(self, path) -> None:
        path.parent.mkdir(exist_ok=True)
        with path.open("w") as out:
            for ident, name, start, end, parent, round_id in self.records:
                out.write(json.dumps({
                    "id": ident, "name": name, "start": start, "end": end,
                    "parent": parent, "round": round_id,
                }) + "\n")


class _Span:
    __slots__ = ("_spans", "_name", "_record")

    def __init__(self, spans: Spans, name: str):
        self._spans = spans
        self._name = name

    def __enter__(self) -> None:
        spans = self._spans
        parent = spans._stack[-1] if spans._stack else None
        ident = len(spans.records)
        self._record = [ident, self._name, 0.0, 0.0, parent, spans.round]
        spans.records.append(self._record)
        spans._stack.append(ident)
        self._record[2] = perf_counter()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._record[3] = perf_counter()
        self._spans._stack.pop()
        return False


def second_best_of(repeats: int, call) -> float:
    """Second-best wall seconds of ``repeats`` calls."""
    samples = []
    for __ in range(repeats):
        gc.collect()
        started = perf_counter()
        call()
        samples.append(perf_counter() - started)
    return second_best(samples, "lower")


def half_round(fixture) -> list:
    """A shorter round for the side passes: the first half of the forward
    stream and exactly its inverse, so state still returns to the start."""
    half = max(1, len(fixture.forward) // 2)
    return fixture.forward[:half] + fixture.inverse[len(fixture.inverse) - half:]


def replay_seconds(target, transactions, rounds: int) -> float:
    """Best wall seconds of ``rounds`` replays after one warm-up replay."""
    walls = []
    for index in range(rounds + 1):
        gc.collect()
        started = perf_counter()
        for transaction in transactions:
            target.apply(transaction)
        if index:
            walls.append(perf_counter() - started)
    return min(walls)


# ----------------------------------------------------------------------
# (a) + (c): spans around Warehouse calls, perf deltas over the rounds.
# ----------------------------------------------------------------------

def traced_rounds(fixture, spans: Spans, rounds: int) -> tuple[dict, dict]:
    """Replay ``rounds`` rounds with a span around every call into the
    program.  Returns ``(metrics, side data for the direct calls)``."""
    workload, warehouse = fixture.workload, fixture.warehouse
    maintainers = [warehouse.maintainer(name) for name in workload.views]
    for maintainer in maintainers:
        # Warehouse.apply's per-view calls become child spans.
        def traced_apply(transaction, undo=None, shared=None,
                         _apply=maintainer.apply,
                         _name=f"core.maintenance.apply:{maintainer.view.name}"):
            with spans.span(_name):
                return _apply(transaction, undo=undo, shared=shared)
        maintainer.apply = traced_apply
    before = [maintainer.perf.snapshot() for maintainer in maintainers]
    admitted = rejected = attempted = failed = 0
    patches: list[dict] = []
    reader = warehouse.maintainer(workload.read_view)
    try:
        for round_id in range(rounds):
            spans.round = round_id
            gc.collect()
            with spans.span("round"):
                for transaction in fixture.round_txns:
                    attempted += 2
                    try:
                        with spans.span("warehouse.apply"):
                            changed = warehouse.apply(transaction)
                    except Exception:
                        failed += 2
                        continue
                    cache = warehouse.last_shared_cache
                    if cache is not None:
                        admitted += cache.admitted
                        rejected += cache.rejected
                    if round_id == 0:
                        patches.append({
                            key: reader.summary_row(key)
                            for key in changed[workload.read_view]
                        })
                    with spans.span("warehouse.summary"):
                        len(warehouse.summary(workload.read_view))
    finally:
        spans.round = None
        for maintainer in maintainers:
            del maintainer.apply
    after = [maintainer.perf.snapshot() for maintainer in maintainers]

    def delta(section: str, name: str) -> float:
        return sum(
            b[section].get(name, 0) - a[section].get(name, 0)
            for a, b in zip(before, after)
        )

    txns = rounds * len(fixture.round_txns)
    apply_wall = spans.total("warehouse.apply")
    phases = {phase: delta("timings_ms", phase) for phase in PHASE_METRICS}
    hits = delta("counters", "plan_shared_hits")
    lookups = hits + admitted + rejected
    out = {
        f"core.maintenance.phase.{phase}_ms": value
        for phase, value in phases.items()
    }
    out["core.maintenance.unattributed_frac"] = (
        1.0 - sum(phases.values()) / (apply_wall * 1e3)
    )
    out["core.maintenance.rows_reduced_away_frac"] = sum(
        delta("counters", name) for name in REDUCED_AWAY
    ) / (rounds * fixture.round_rows * len(maintainers))
    out["core.maintenance.groups_recomputed_per_txn"] = (
        delta("counters", "groups_recomputed") / txns
    )
    out["warehouse.shared_subplan_hit_frac"] = hits / lookups if lookups else 0.0
    side = {
        "attempted": attempted, "failed": failed, "patches": patches,
        "warehouse_apply_ms_per_txn": apply_wall * 1e3 / txns,
        "replans": delta("counters", "replans"),
        "exact": {
            "plan_shared_hits": hits, "shared_admitted": admitted,
            "shared_rejected": rejected,
            **{name: delta("counters", name) for name in REDUCED_AWAY},
            "groups_recomputed": delta("counters", "groups_recomputed"),
        },
    }
    return out, side


# ----------------------------------------------------------------------
# (b): direct calls into single layers.
# ----------------------------------------------------------------------

def setup_layers(fixture, spans: Spans, side: dict) -> dict:
    """parse -> derive -> load -> compile, each timed on its own."""
    workload, database = fixture.workload, fixture.database

    def parse():
        with spans.span("sql.parse"):
            parse_schema(inputs.SCHEMA_SQL)
            harness.parse_views(workload.views, database)

    def derive():
        with spans.span("core.derivation.derive"):
            for view in fixture.views:
                derive_auxiliary_views(view, database)

    built: list = []

    def construct():
        built.clear()
        with spans.span("core.maintenance.construct"):
            built.extend(SelfMaintainer(view, database) for view in fixture.views)

    derive_s = second_best_of(5, derive)
    construct_s = second_best_of(3, construct)
    started = perf_counter()
    shapes = 0
    with spans.span("plan.compile"):
        for maintainer in built:
            for table in maintainer.view.tables:
                for sign in (1, -1):
                    maintainer.delta_plans(table, sign)
                    shapes += 1
    compile_s = perf_counter() - started
    return {
        "sql.parse_ms": second_best_of(5, parse) * 1e3,
        "core.derivation.derive_ms": derive_s * 1e3,
        "core.maintenance.initial_load_ms": (construct_s - derive_s) * 1e3,
        "plan.compile_ms": compile_s * 1e3,
        "plan.compile_count": shapes + side["replans"],
    }


def delta_layers(fixture, spans: Spans, side: dict) -> dict:
    """Coalescing and schema validation over the round's delta rows."""
    transactions = fixture.round_txns
    rows_in = fixture.round_rows
    coalesced: list = []

    def coalesce():
        coalesced.clear()
        with spans.span("engine.deltas.coalesce"):
            coalesced.extend(t.coalesced() for t in transactions)

    coalesce_s = second_best_of(5, coalesce)
    schema = fixture.database.table("sale").schema
    deltas = [delta for t in transactions for delta in t]

    def validate():
        with spans.span("engine.schema.validate"):
            for delta in deltas:
                schema.validate_rows(delta.inserted)
                schema.validate_rows(delta.deleted)

    return {
        "engine.deltas.coalesce_us_per_row": coalesce_s * 1e6 / rows_in,
        "engine.deltas.cancelled_frac":
            1.0 - harness.delta_rows(coalesced) / rows_in,
        "engine.schema.validate_us_per_row":
            second_best_of(5, validate) * 1e6 / rows_in,
    }


def backend_layers(fixture, spans: Spans, side: dict) -> dict:
    """The root auxiliary view's materialization on the default backend:
    fold surviving fact rows in and out again, then probe it."""
    maintainer = fixture.warehouse.maintainer(fixture.workload.views[0])
    aux = maintainer.aux_set.for_table("sale")
    materialization = maintainer.backend.make_materialization(
        aux, use_indexes=True, namespace="bench"
    )
    materialization.load(maintainer.aux_relation("sale").copy())
    selected_days = {
        row[0] for row in fixture.rows["time"]
        if "time" not in maintainer.view.tables or row[3] == 1997
    }
    known = set(fixture.rows["sale"])
    survivors = [
        row for inserted, __ in fixture.stream for row in inserted
        if row not in known and row[1] in selected_days
    ]

    def fold():
        with spans.span("backends.aux_apply"):
            materialization.apply(survivors, 1)
            materialization.apply(survivors, -1)

    column = aux.output_schema().qualified_names()[0]
    position = aux.base_schema.index_of(column.split(".", 1)[1])
    keys = {row[position] for row in survivors}

    def probe():
        with spans.span("backends.aux_probe"):
            materialization.rows_matching(column, keys)

    return {
        "backends.aux_apply_us_per_row":
            second_best_of(5, fold) * 1e6 / (2 * len(survivors)),
        "backends.aux_probe_us_per_key":
            second_best_of(5, probe) * 1e6 / len(keys),
    }


def replay_layers(fixture, spans: Spans, side: dict) -> dict:
    """Whole-warehouse replays per backend and with a tracer attached,
    then single-view maintainers for the per-view share of ``apply``."""
    database = fixture.database
    transactions = half_round(fixture)
    rows = harness.delta_rows(transactions)
    out = {}
    plain_s = None
    for name in ("memory", "columnar"):
        if name not in BACKEND_NAMES:
            continue
        with spans.span(f"backends.{name}.replay"):
            with Warehouse(database, fixture.views, backend=name) as warehouse:
                seconds = replay_seconds(warehouse, transactions, 2)
        out[f"backends.{name}.replay_rows_per_s"] = rows / seconds
        if name == resolve_backend_name():
            plain_s = seconds
    with spans.span("obs.traced_replay"):
        tracer = Tracer(sample_every=1)
        with Warehouse(database, fixture.views, tracer=tracer) as warehouse:
            traced_s = replay_seconds(warehouse, transactions, 2)
            out["obs.metrics_scrape_ms"] = (
                second_best_of(5, warehouse.metrics_text) * 1e3
            )
    if plain_s is not None:
        out["obs.trace_overhead_frac"] = traced_s / plain_s - 1.0
    per_view_ms = []
    for view in fixture.views:
        with spans.span(f"core.maintenance.replay:{view.name}"):
            maintainer = SelfMaintainer(view, database)
            seconds = replay_seconds(maintainer, transactions, 2)
        per_view_ms.append(seconds * 1e3 / len(transactions))
    out["core.maintenance.apply_ms_per_txn"] = per_view_ms[0]
    out["warehouse.apply_overhead_ms_per_txn"] = (
        side["warehouse_apply_ms_per_txn"] - sum(per_view_ms)
    )
    return out


def rewrite_layers(fixture, spans: Spans, side: dict) -> dict:
    """Section 3.2 recomputation from X, on group keys the rounds dirtied."""
    maintainer = fixture.warehouse.maintainer(fixture.workload.read_view)
    keys = frozenset(
        key for patch in side["patches"] for key in patch
        if patch[key] is not None
    )
    keys = frozenset(sorted(keys)[:32])
    relations = maintainer.aux_relations()

    def accumulate():
        with spans.span("core.rewrite.accumulate"):
            maintainer.reconstructor.accumulate(relations, keys)

    return {
        "core.rewrite.accumulate_ms_per_group":
            second_best_of(5, accumulate) * 1e3 / len(keys),
    }


def warehouse_layers(fixture, spans: Spans, side: dict) -> dict:
    """Checkpoint cycles to a scratch directory, and the storage ledger."""
    scratch = harness.OUT_DIR / f"checkpoint-{fixture.workload.name}"
    scratch.mkdir(parents=True, exist_ok=True)
    path = scratch / "warehouse.json"
    definitions = {view.name: view for view in fixture.views}

    def save():
        with spans.span("warehouse.persistence.save"):
            save_warehouse(fixture.warehouse, path)

    def load():
        with spans.span("warehouse.persistence.load"):
            load_warehouse(definitions, fixture.database, path).close()

    try:
        save_s = second_best_of(5, save)
        size = path.stat().st_size
        load_s = second_best_of(5, load)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    storage = harness.storage(fixture.warehouse, fixture.views, fixture.database)
    return {
        "warehouse.persistence.save_ms": save_s * 1e3,
        "warehouse.persistence.load_ms": load_s * 1e3,
        "warehouse.persistence.checkpoint_bytes": size,
        **{f"warehouse.storage.{name}": value for name, value in storage.items()},
    }


def serving_layers(fixture, spans: Spans, side: dict) -> dict:
    """The serving pieces without a socket: a standalone snapshot store
    fed the rounds' changed-key patches, then the apply queue and the
    service methods over the fixture's warehouse."""
    workload, warehouse = fixture.workload, fixture.warehouse
    reader = warehouse.maintainer(workload.read_view)
    store = VersionedViewStore(
        workload.read_view, reader.reconstructor.output_schema,
        reader.group_rows(), having=reader.view.having,
    )
    publish_s, read_s = [], []
    with spans.span("serving.snapshots"):
        for version, patch in enumerate(side["patches"], 1):
            started = perf_counter()
            store.publish(version, version, patch)
            published = perf_counter()
            len(store.snapshot().rows())
            read_s.append(perf_counter() - published)
            publish_s.append(published - started)
    transactions = half_round(fixture)
    bodies = [served.apply_body(t) for t in transactions]
    service = WarehouseService(warehouse).start()
    submit_s, apply_s, query_s = [], [], []
    try:
        with spans.span("serving.applyqueue"):
            for transaction in transactions:
                started = perf_counter()
                service.queue.submit(transaction).wait(30)
                submit_s.append(perf_counter() - started)
        with spans.span("serving.service"):
            for body in bodies:
                started = perf_counter()
                status, __, ___ = service.apply(body)
                applied = perf_counter()
                service.query(workload.read_view)
                query_s.append(perf_counter() - applied)
                apply_s.append(applied - started)
                if status != 200:
                    raise RuntimeError(f"service.apply returned {status}")
        batches = service.registry.histogram(
            "repro_serving_batch_txns", DELTA_ROWS_BUCKETS
        ).summary()
        rejected = service.registry.counter(
            "repro_serving_txns_rejected_total"
        ).value
        accepted = service.queue.accepted
    finally:
        service.stop()
    return {
        "serving.snapshots.publish_us": statistics.median(publish_s) * 1e6,
        "serving.snapshots.read_us": statistics.median(read_s) * 1e6,
        "serving.applyqueue.submit_wait_ms": statistics.median(submit_s) * 1e3,
        "serving.applyqueue.batch_size_mean": batches["sum"] / batches["count"],
        "serving.applyqueue.rejected_frac": rejected / accepted,
        "serving.service.query_ms": statistics.median(query_s) * 1e3,
        "serving.service.apply_ms": statistics.median(apply_s) * 1e3,
    }


def http_layers(fixture, seed: int, smoke: bool, spans: Spans,
                rounds: int, offline: dict) -> tuple[dict, dict]:
    """``serve_mixed`` only: traced HTTP rounds against the real server
    process; the round trip minus the socket-free service call is the
    HTTP layer's share.  Batch sizes and rejections come from /metrics."""
    workload = fixture.workload
    bodies = [served.apply_body(t) for t in fixture.round_txns]
    apply_s: list[float] = []
    statuses: list[int] = []
    with served.ServerProcess(workload, seed, smoke) as server:
        writer = served.Client(server.port)
        reader = served.Reader(server.port, workload.read_view)
        reader.start()
        for round_id in range(rounds):
            spans.round = round_id
            with spans.span("round"):
                for body in bodies:
                    with spans.span("serving.http.apply"):
                        seconds, status, _ = writer.request(
                            "POST", "/apply", body
                        )
                    apply_s.append(seconds)
                    statuses.append(status)
        spans.round = None
        reader.finish()
        payload = writer.request("GET", "/metrics")[2]
        writer.close()
    for started, seconds, status, _ in reader.reads:
        spans.records.append(
            [len(spans.records), "serving.http.query", started,
             started + seconds, None, None]
        )
        statuses.append(status)
    scraped = {}
    for line in payload.decode().splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            scraped[name] = float(value)
    applied = scraped.get("repro_serving_txns_applied_total", 0.0)
    rejected = scraped.get("repro_serving_txns_rejected_total", 0.0)
    out = {
        "serving.http.apply_overhead_ms":
            percentile(apply_s, 0.5) * 1e3
            - offline.get("serving.service.apply_ms", 0.0),
        "serving.http.read_overhead_ms":
            percentile([read[1] for read in reader.reads], 0.5) * 1e3
            - offline.get("serving.service.query_ms", 0.0),
        "serving.applyqueue.batch_size_mean":
            scraped["repro_serving_batch_txns_sum"]
            / scraped["repro_serving_batch_txns_count"],
        "serving.applyqueue.rejected_frac": rejected / (applied + rejected),
    }
    counts = {
        "attempted": len(statuses),
        "failed": sum(status != 200 for status in statuses),
    }
    return out, counts


def run(workload, seed: int, smoke: bool) -> dict:
    """The traced pass of one workload: every per-layer metric."""
    spans = Spans()
    fixture = inprocess.Fixture(workload, seed, setup_repeats=1)
    __, mismatched = fixture.warm_up()
    baseline = fixture.fingerprints()
    rounds = workload.traced_rounds
    measured, side = traced_rounds(fixture, spans, rounds)
    missing: dict[str, str] = {}
    for layer in (
        setup_layers, delta_layers, backend_layers, replay_layers,
        rewrite_layers, warehouse_layers, serving_layers,
    ):
        try:
            measured.update(layer(fixture, spans, side))
        except Exception as error:  # the program no longer exposes it
            missing[layer.__name__] = f"{type(error).__name__}: {error}"
    attempted, failed = side["attempted"], side["failed"]
    restored = fixture.fingerprints() == baseline
    if workload.served:
        http, counts = http_layers(
            fixture, seed, smoke, spans, rounds, measured
        )
        measured.update(http)
        attempted += counts["attempted"]
        failed += counts["failed"]
    if mismatched or not restored:
        failed = attempted
    spans.write(harness.OUT_DIR / f"trace-{workload.name}.jsonl")
    not_applicable = [] if workload.served else [
        "serving.http.read_overhead_ms", "serving.http.apply_overhead_ms",
    ]
    reported = {}
    for name, __, ___, should_move, on in PER_LAYER:
        value = measured.get(name)
        if value is None and name not in not_applicable:
            missing.setdefault(name, "not measured")
        reported[name] = {
            "value": value if value is not None else 0.0,
            "should_move": should_move, "on": on,
        }
    return {
        "workload_digest": fixture.digest,
        "correct": failed == 0,
        "oracle": {"views_differing": mismatched, "state_restored": restored},
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "metrics": reported,
        "missing": missing,
        "not_applicable": not_applicable,
        "layer_self_ms": {
            name: seconds * 1e3
            for name, seconds in sorted(spans.self_times().items())
        },
        "exact": side["exact"],
    }
