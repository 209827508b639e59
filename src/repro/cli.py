"""Command-line interface: derive and inspect minimal detail data.

Usage (``python -m repro <command> ...``)::

    python -m repro classify [--append-only]
        Print the aggregate classification (Tables 1 and 2).

    python -m repro graph --schema schema.sql --view view.sql
        Print the extended join graph, annotations, Need sets, and
        dependence relation (Figure 2 and Definitions 2-4).

    python -m repro derive --schema schema.sql --view view.sql
                     [--append-only]
        Run Algorithm 3.2: print the auxiliary views as SQL, which views
        were eliminated and why, and the reconstruction query.

    python -m repro storage [--days N --stores N --products N
                             --sold-per-day N --transactions N]
        Print the Section 1.1 storage analysis for the given (default:
        the paper's) cardinalities.

    python -m repro perf --schema schema.sql --view view.sql
        Maintain the view under a synthetic transaction stream and print
        the hot-path counters, phase timings, and per-transaction
        histogram summaries.

    python -m repro trace --schema schema.sql --view view.sql
                    [--sample-every N --jsonl out.jsonl]
        Same stream, with structured tracing on: prints the slowest
        transaction's span tree (flame-style) and optionally exports
        every sampled trace as JSONL.

    python -m repro metrics --schema schema.sql --view view.sql
                    [--jsonl out.jsonl]
        Same stream; prints the merged metrics registry in Prometheus
        text exposition format and optionally snapshots it as JSONL.

    python -m repro serve --retail [--host H --port P --backend SPEC]
        Run the warehouse as an HTTP service: snapshot-isolated
        /query reads, a single-writer /apply queue with micro-batched
        coalescing, /refresh barrier, /explain, Prometheus /metrics,
        /healthz with SLO state, the structured /events log, and
        stitched /trace trees.

    python -m repro events --retail [--level L --jsonl out.jsonl]
        Run the synthetic stream and print the structured event log
        (txn commits/rollbacks, checkpoints, backpressure).

    python -m repro doctor --retail [--json --checkpoint path
                                     --plant-index-corruption]
        Operational self-check: index consistency, checkpoint
        staleness, event-log errors.  Exits 0
        healthy, 1 degraded (warnings), 2 unhealthy (failures).

    python -m repro top [--url U --interval S --once]
        Live terminal dashboard over a serving /metrics endpoint:
        throughput, queue depth, read latency quantiles.

The observability commands and ``serve`` also run against the built-in
retail star schema with ``--retail`` (no schema/view files needed), and
share ``--transactions``/``--seed``/``--rows-per-table`` stream knobs.

``schema.sql`` holds CREATE TABLE statements (see ``repro.sql.ddl``);
``view.sql`` holds one CREATE VIEW statement in the GPSJ dialect.  Pass
``-`` to read from stdin.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.derivation import derive_auxiliary_views
from repro.core.joingraph import ExtendedJoinGraph
from repro.core.rewrite import ReconstructionError, Reconstructor
from repro.core.aggregates import classification_table
from repro.sql.ddl import parse_schema
from repro.sql.parser import parse_view
from repro.storage.model import (
    paper_auxiliary_view_estimate,
    paper_fact_table_estimate,
)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except Exception as error:  # CLI boundary: surface, don't trace
        print(f"error: {error}", file=sys.stderr)
        return 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Minimizing Detail Data in Data Warehouses (EDBT 1998)",
    )
    subparsers = parser.add_subparsers(dest="command")
    parser.set_defaults(command=None)

    classify = subparsers.add_parser(
        "classify", help="print the aggregate classification (Tables 1-2)"
    )
    classify.add_argument(
        "--append-only",
        action="store_true",
        help="apply the old-detail-data relaxation (Section 4)",
    )
    classify.set_defaults(handler=_cmd_classify)

    for name, handler, description in (
        ("graph", _cmd_graph, "print the extended join graph and Need sets"),
        ("derive", _cmd_derive, "derive the minimal auxiliary views"),
        ("explain", _cmd_explain, "narrate every derivation decision"),
    ):
        sub = subparsers.add_parser(name, help=description)
        sub.add_argument("--schema", required=True, help="CREATE TABLE file ('-' for stdin)")
        sub.add_argument("--view", required=True, help="CREATE VIEW file ('-' for stdin)")
        if name in ("derive", "explain"):
            sub.add_argument(
                "--append-only",
                action="store_true",
                help="derive for append-only (old) detail data",
            )
        if name == "explain":
            sub.add_argument(
                "--plan",
                action="store_true",
                help="print the physical evaluation and maintenance plans",
            )
            sub.add_argument(
                "--analyze",
                action="store_true",
                help="run a synthetic transaction stream first and "
                "annotate the plans with observed per-node cardinalities "
                "and timings",
            )
            sub.add_argument("--transactions", type=int, default=40)
            sub.add_argument("--seed", type=int, default=0)
            sub.add_argument("--rows-per-table", type=int, default=24)
            _add_backend_flag(sub)
        sub.set_defaults(handler=handler)

    for name, handler, description in (
        ("perf", _cmd_perf, "run a synthetic stream; print perf counters"),
        ("trace", _cmd_trace, "run a synthetic stream with tracing on"),
        ("metrics", _cmd_metrics, "run a synthetic stream; export metrics"),
        ("events", _cmd_events, "run a synthetic stream; print the event log"),
        ("doctor", _cmd_doctor, "run warehouse self-checks (exit 0/1/2)"),
    ):
        sub = subparsers.add_parser(name, help=description)
        sub.add_argument("--schema", help="CREATE TABLE file ('-' for stdin)")
        sub.add_argument("--view", help="CREATE VIEW file ('-' for stdin)")
        sub.add_argument(
            "--retail",
            action="store_true",
            help="use the built-in retail star schema instead of "
            "--schema/--view",
        )
        sub.add_argument("--transactions", type=int, default=40)
        sub.add_argument("--seed", type=int, default=0)
        sub.add_argument(
            "--rows-per-table",
            type=int,
            default=24,
            help="synthetic rows seeded per table when the schema has no data",
        )
        if name == "trace":
            sub.add_argument(
                "--sample-every",
                type=int,
                default=1,
                help="trace the first of every N transactions (1 = all)",
            )
            sub.add_argument(
                "--jsonl", help="export every sampled trace as JSONL"
            )
        if name == "metrics":
            sub.add_argument(
                "--jsonl", help="write a JSONL snapshot of the registry"
            )
        if name == "events":
            sub.add_argument(
                "--level",
                choices=("debug", "info", "warn", "error"),
                default=None,
                help="only show events at or above this level",
            )
            sub.add_argument(
                "--limit", type=_non_negative_int, default=None,
                help="only show the newest N events",
            )
            sub.add_argument(
                "--jsonl", help="export the event log as JSONL"
            )
        if name == "doctor":
            sub.add_argument(
                "--json",
                action="store_true",
                help="emit the machine-readable report instead of text",
            )
            sub.add_argument(
                "--checkpoint",
                help="checkpoint file whose staleness the doctor verifies",
            )
            sub.add_argument(
                "--max-checkpoint-age",
                type=float,
                default=86_400.0,
                help="seconds before a checkpoint counts as stale",
            )
            sub.add_argument(
                "--plant-index-corruption",
                action="store_true",
                help="deliberately corrupt one row index first (CI gate: "
                "proves the doctor notices)",
            )
        _add_backend_flag(sub)
        sub.set_defaults(handler=handler)

    top = subparsers.add_parser(
        "top",
        help="live terminal dashboard over a serving /metrics endpoint",
    )
    top.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="base URL of a running 'repro serve' (default %(default)s)",
    )
    top.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes",
    )
    top.add_argument(
        "--iterations", type=int, default=None,
        help="stop after N refreshes (default: run until Ctrl-C)",
    )
    top.add_argument(
        "--once", action="store_true",
        help="print one snapshot and exit (no screen clearing)",
    )
    top.set_defaults(handler=_cmd_top)

    serve = subparsers.add_parser(
        "serve",
        help="run the warehouse as an HTTP service (snapshot-isolated reads)",
    )
    serve.add_argument("--schema", help="CREATE TABLE file ('-' for stdin)")
    serve.add_argument("--view", help="CREATE VIEW file ('-' for stdin)")
    serve.add_argument(
        "--retail",
        action="store_true",
        help="serve the built-in retail star schema instead of "
        "--schema/--view",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8642,
        help="TCP port (0 binds an ephemeral port; default 8642)",
    )
    serve.add_argument(
        "--rows-per-table",
        type=int,
        default=24,
        help="synthetic rows seeded per table when the schema has no data",
    )
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--max-pending",
        type=int,
        default=256,
        help="apply-queue depth before submissions get 503 backpressure",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=16,
        help="transactions coalesced into one micro-batch per apply",
    )
    serve.add_argument(
        "--retain-versions",
        type=int,
        default=64,
        help="snapshot versions kept reconstructable for pinned readers",
    )
    serve.add_argument(
        "--trace-sample-every",
        type=int,
        default=1,
        help="trace the first of every N requests/transactions "
        "(1 = all, 0 = tracing off; errors are always retained)",
    )
    _add_backend_flag(serve)
    serve.set_defaults(handler=_cmd_serve)

    share = subparsers.add_parser(
        "share",
        help="merge the auxiliary views of several views (Section 4)",
    )
    share.add_argument("--schema", required=True, help="CREATE TABLE file")
    share.add_argument(
        "--views",
        required=True,
        nargs="+",
        help="CREATE VIEW files forming the class",
    )
    share.set_defaults(handler=_cmd_share)

    storage = subparsers.add_parser(
        "storage", help="print the Section 1.1 storage analysis"
    )
    storage.add_argument("--days", type=int, default=730)
    storage.add_argument("--stores", type=int, default=300)
    storage.add_argument("--products", type=int, default=30_000)
    storage.add_argument("--sold-per-day", type=int, default=3_000)
    storage.add_argument("--transactions", type=int, default=20)
    storage.add_argument(
        "--selected-days",
        type=int,
        default=None,
        help="days passing the view's time condition (default: half)",
    )
    storage.set_defaults(handler=_cmd_storage)
    return parser


def _add_backend_flag(sub) -> None:
    from repro.backends import BACKEND_NAMES

    sub.add_argument(
        "--backend",
        metavar="SPEC",
        type=_backend_spec,
        default=None,
        help="execution backend for the maintained warehouse: one of "
        f"{', '.join(BACKEND_NAMES)}; "
        "default: the REPRO_BACKEND environment variable, else memory",
    )


def _backend_spec(value: str) -> str:
    """Validate a ``--backend`` spec early, with an argparse-style error."""
    import argparse

    from repro.backends import BackendError, resolve_backend_name

    try:
        resolve_backend_name(value)
    except BackendError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _non_negative_int(value: str) -> int:
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, not {number}")
    return number


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as handle:
        return handle.read()


def _load(args) -> tuple:
    database = parse_schema(_read(args.schema))
    view = parse_view(_read(args.view), database, name="view")
    return database, view


def _cmd_classify(args) -> int:
    mode = " (append-only relaxation)" if args.append_only else ""
    print(f"Classification of SQL aggregates{mode}:")
    print(f"{'aggregate':<10}{'SMA ins/del':<14}{'SMAS ins/del':<15}"
          f"{'replaced by':<16}{'class'}")
    for row in classification_table(append_only=args.append_only):
        sma = "/".join("yes" if x else "no" for x in row["sma"])
        smas = "/".join("yes" if x else "no" for x in row["smas"])
        print(
            f"{row['aggregate']:<10}{sma:<14}{smas:<15}"
            f"{row['replaced_by']:<16}{row['class']}"
        )
    return 0


def _cmd_graph(args) -> int:
    database, view = _load(args)
    graph = ExtendedJoinGraph(view, database)
    print("Extended join graph (g = group-by attributes, k = key grouped):")
    print(graph.render())
    print(f"\nroot table: {graph.root}")
    print("\nNeed sets (Definition 3):")
    for table in view.tables:
        print(f"  Need({table}) = {sorted(graph.need(table)) or '{}'}")
    print("\nDependence (join reductions, Section 2.2):")
    for table in view.tables:
        deps = graph.depends_on(table)
        if deps:
            print(f"  {table} depends on {sorted(deps)}")
    return 0


def _cmd_derive(args) -> int:
    database, view = _load(args)
    aux = derive_auxiliary_views(
        view, database, append_only=args.append_only
    )
    print("-- view ----------------------------------------------------")
    print(view.to_sql())
    print()
    print("-- minimal auxiliary views (Algorithm 3.2) -----------------")
    if aux.auxiliary:
        print(aux.to_sql())
    else:
        print("-- none required: the view is self-maintainable alone")
    if aux.eliminated:
        print()
        for table, reason in aux.eliminated.items():
            print(f"-- X_{table} omitted: {reason}")
    print()
    print("-- reconstruction of the view over the auxiliary views -----")
    try:
        print(Reconstructor(view, aux, database).to_sql())
    except ReconstructionError:
        print(
            "-- not reconstructable from auxiliary views alone "
            "(an auxiliary view was eliminated); the view is maintained "
            "directly from deltas"
        )
    return 0


def _cmd_explain(args) -> int:
    database, view = _load(args)
    if args.analyze:
        from repro.plan.explain import maintainer_plan_report, stats_annotator
        from repro.plan.planner import evaluate_view

        warehouse, __ = _run_stream(database, view, args)
        evaluate_view(view, database)  # give the evaluation plan a run too
        maintainer = warehouse.maintainer(view.name)
        print(maintainer_plan_report(maintainer, database, stats_annotator))
        print(
            f"\n(observed over {args.transactions} synthetic transactions, "
            f"seed {args.seed}; nodes without an 'actual:' note never ran)"
        )
        return 0
    if args.plan:
        from repro.plan.explain import explain_view_plans

        print(explain_view_plans(view, database, backend=args.backend))
        return 0
    from repro.core.explain import explain_derivation

    report = explain_derivation(
        view, database, append_only=args.append_only
    )
    print(report.render())
    return 0


def _workload(args) -> tuple:
    """The (database, view) pair an observability command streams over."""
    if getattr(args, "retail", False):
        from repro.workloads.retail import (
            RetailConfig,
            build_retail_database,
            product_sales_view,
        )

        config = RetailConfig(
            days=10, stores=3, products=30, products_sold_per_day=10,
            start_year=1997,
        )
        return build_retail_database(config), product_sales_view()
    if not args.schema or not args.view:
        raise ValueError("pass --schema and --view, or --retail")
    return _load(args)


def _run_stream(database, view, args, tracer=None):
    """Register ``view`` in a warehouse and maintain it under a
    referential-integrity-preserving synthetic stream; returns the
    warehouse and the applied transaction count."""
    from repro.warehouse.warehouse import Warehouse
    from repro.workloads.streams import (
        TransactionGenerator,
        generic_value_makers,
        seed_database,
    )

    if all(not table.relation for table in database.tables):
        seed_database(
            database, rows_per_table=args.rows_per_table, seed=args.seed
        )
    warehouse = Warehouse(
        database,
        [view],
        tracer=tracer,
        backend=getattr(args, "backend", None),
    )
    generator = TransactionGenerator(
        database,
        seed=args.seed,
        value_makers=generic_value_makers(database),
    )
    applied = 0
    for __ in range(args.transactions):
        transaction = generator.next_transaction(update_probability=0.0)
        if transaction.empty:
            continue
        database.apply(transaction)
        warehouse.apply(transaction)
        applied += 1
    return warehouse, applied


def _cmd_perf(args) -> int:
    database, view = _workload(args)
    warehouse, applied = _run_stream(database, view, args)
    from repro.perf import TXN_DELTA_ROWS, TXN_LATENCY_MS, TXN_ROWS_PER_SEC

    print(f"synthetic stream: {applied} transactions applied")
    print(warehouse.perf_report())
    perf = warehouse.maintainer(view.name).perf
    print("per-transaction distributions:")
    for name in (TXN_LATENCY_MS, TXN_DELTA_ROWS, TXN_ROWS_PER_SEC):
        summary = perf.histogram_summary(name)
        print(
            f"  {name}: count={summary['count']} p50={summary['p50']} "
            f"p95={summary['p95']} p99={summary['p99']}"
        )
    return 0


def _cmd_trace(args) -> int:
    from repro.obs.trace import Tracer

    database, view = _workload(args)
    tracer = Tracer(sample_every=args.sample_every)
    warehouse, applied = _run_stream(database, view, args, tracer=tracer)
    print(
        f"synthetic stream: {applied} transactions applied, "
        f"{tracer.sampled} traced (sample_every={args.sample_every})"
    )
    slowest = tracer.slowest()
    if slowest is None:
        print("no transactions were sampled")
        return 0
    print("\nslowest traced transaction:")
    print(slowest.render())
    if args.jsonl:
        tracer.export_jsonl(args.jsonl)
        print(f"\n{len(tracer.traces)} traces exported to {args.jsonl}")
    return 0


def _cmd_metrics(args) -> int:
    database, view = _workload(args)
    warehouse, __ = _run_stream(database, view, args)
    registry = warehouse.metrics_registry()
    print(registry.render_prometheus())
    if args.jsonl:
        registry.write_jsonl(args.jsonl)
        print(f"# registry snapshot written to {args.jsonl}")
    return 0


def _cmd_events(args) -> int:
    database, view = _workload(args)
    warehouse, applied = _run_stream(database, view, args)
    events = warehouse.events
    print(
        f"synthetic stream: {applied} transactions applied, "
        f"{len(events)} events in the ring "
        f"(totals: {events.totals or '{}'})"
    )
    rendered = events.render(level=args.level, limit=args.limit)
    if rendered:
        print(rendered)
    if args.jsonl:
        events.write_jsonl(args.jsonl, level=args.level)
        print(f"event log exported to {args.jsonl}")
    return 0


def _cmd_doctor(args) -> int:
    from repro.warehouse.doctor import plant_index_corruption, run_doctor

    database, view = _workload(args)
    warehouse, __ = _run_stream(database, view, args)
    if args.plant_index_corruption:
        if not plant_index_corruption(warehouse):
            print(
                "error: no in-process row index to corrupt on this backend",
                file=sys.stderr,
            )
            return 1
    report = run_doctor(
        warehouse,
        checkpoint_path=args.checkpoint,
        max_checkpoint_age_s=args.max_checkpoint_age,
    )
    print(report.to_json() if args.json else report.render())
    warehouse.close()
    return report.exit_code


def _cmd_top(args) -> int:
    import time as _time

    from repro.obs.top import Dashboard

    dashboard = Dashboard(args.url)
    iteration = 0
    while True:
        try:
            metrics, health = dashboard.fetch()
        except OSError as error:
            print(f"error: cannot reach {args.url}: {error}", file=sys.stderr)
            return 1
        if not args.once:
            # Clear and home (ANSI) so the dashboard repaints in place.
            print("\x1b[2J\x1b[H", end="")
        print(dashboard.render(metrics, health, args.interval))
        iteration += 1
        if args.once or (
            args.iterations is not None and iteration >= args.iterations
        ):
            return 0
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _cmd_serve(args) -> int:
    from repro.obs.trace import Tracer
    from repro.serving.server import WarehouseServer
    from repro.warehouse.warehouse import Warehouse
    from repro.workloads.streams import seed_database

    database, view = _workload(args)
    if all(not table.relation for table in database.tables):
        seed_database(
            database, rows_per_table=args.rows_per_table, seed=args.seed
        )
    tracer = (
        Tracer(sample_every=args.trace_sample_every)
        if args.trace_sample_every > 0
        else None
    )
    warehouse = Warehouse(
        database,
        [view],
        tracer=tracer,
        backend=args.backend,
    )
    server = WarehouseServer(
        warehouse,
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        max_batch=args.max_batch,
        retain_versions=args.retain_versions,
    )
    print(f"serving {view.name!r} on {server.url}")
    print(
        "endpoints: /query?view=" + view.name + "  /apply  /refresh  "
        "/explain  /metrics  /healthz  /events  /trace   (Ctrl-C stops)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        warehouse.close()
    return 0


def _cmd_share(args) -> int:
    from repro.core.sharing import merge_views

    database = parse_schema(_read(args.schema))
    views = []
    for index, path in enumerate(args.views):
        views.append(
            parse_view(_read(path), database, name=f"view_{index}")
        )
    shared = merge_views(views, database)
    print("-- shared auxiliary views for the class --------------------")
    print(shared.to_sql())
    for merged in shared.merged:
        print("\n-- " + merged.name + " serves: " + ", ".join(merged.serves))
    return 0


def _cmd_storage(args) -> int:
    fact = paper_fact_table_estimate(
        days=args.days,
        stores=args.stores,
        products_sold_per_day=args.sold_per_day,
        transactions_per_product=args.transactions,
    )
    selected = (
        args.selected_days if args.selected_days is not None else args.days // 2
    )
    aux = paper_auxiliary_view_estimate(
        days=selected, distinct_products_per_day=args.products
    )
    print("Storage analysis (Section 1.1 model):")
    print(f"  {fact}")
    print(f"  {aux}")
    print(f"  reduction: {aux.ratio_to(fact):,.0f}x")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
