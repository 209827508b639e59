"""Cost-planner benchmark: estimation quality and adaptive work savings.

Two deterministic workloads, both measured in *rows processed* (summed
plan-node output cardinalities from ``runtime_stats()``), which is
machine-invariant — the committed baseline gates on the ratio
``work_reduction``, never on wall-clock:

* ``replan_convergence`` — the same misestimate is planted into two
  cost-planned maintainers (a huge per-delta cardinality hint, which
  makes the compiled plan skip every delta-driven restriction and scan
  the full auxiliary views).  The *adaptive* maintainer re-plans after
  the first transaction's observed q-error blows the threshold and
  finishes the stream on converged plans; the *frozen* maintainer
  (re-plan ratio effectively infinite) keeps the bad plan for the whole
  stream.  ``work_reduction = frozen_rows / adaptive_rows`` is what the
  feedback loop saves.

* ``shared_subplans`` — the two overlapping retail views maintained
  once through a cost-mode warehouse (explicit shared-subplan
  selection: the coalesced, locally-reduced ``sale`` delta is computed
  once per transaction and reused by the sibling view) versus the same
  two views maintained standalone (no cross-view sharing exists
  outside a warehouse).  ``work_reduction = unshared_rows /
  shared_rows``; the record also carries the selection's hit rate.

Both records report the estimation quality of the run: the median
(p50) q-error of every estimate-vs-observation comparison the adaptive
loop made, and the re-plan count.

Standalone::

    python benchmarks/bench_planner.py --scale small

writes ``BENCH_planner.json``.  Also collectable by pytest as a smoke
test at the smallest scale.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import SCALES, make_stream, txn_histograms

from repro.core.maintenance import SelfMaintainer
from repro.perf import PLANNER_QERROR
from repro.plan.cost import REPLAN_RATIO_ENV
from repro.warehouse.warehouse import Warehouse
from repro.workloads.retail import (
    build_retail_database,
    product_sales_max_view,
    product_sales_view,
)

#: The planted per-delta cardinality hint: large enough that the cost
#: model prices every delta-driven restriction as useless (estimated
#: delta reach >= auxiliary rows at any benchmark scale).
BAD_HINT_ROWS = 1_000_000.0


def total_rows_processed(maintainer) -> int:
    """Summed output cardinality over every maintenance-plan node (the
    backend-merged ``explain --analyze`` payload) — the benchmark's
    machine-invariant measure of work."""
    return sum(
        record["rows_out"]
        for records in maintainer.runtime_stats().values()
        for record in records
    )


def median_q_error(perf) -> float | None:
    summary = perf.histogram_summary(PLANNER_QERROR)
    return summary["p50"] if summary["count"] else None


def _misestimated_maintainer(database, config, frozen: bool):
    """A cost-planned retail maintainer with the bad hint planted for
    both ``sale`` delta shapes; ``frozen`` disables re-planning by
    raising the threshold beyond any observable q-error."""
    previous = os.environ.get(REPLAN_RATIO_ENV)
    if frozen:
        os.environ[REPLAN_RATIO_ENV] = "1e18"
    else:
        os.environ.pop(REPLAN_RATIO_ENV, None)
    try:
        maintainer = SelfMaintainer(
            product_sales_view(config.start_year), database
        )
    finally:
        if previous is None:
            os.environ.pop(REPLAN_RATIO_ENV, None)
        else:
            os.environ[REPLAN_RATIO_ENV] = previous
    for sign in (+1, -1):
        maintainer.set_estimate_hint(
            "sale", sign, local_rows=BAD_HINT_ROWS, reduce_rows=BAD_HINT_ROWS
        )
    return maintainer


def run_replan_convergence(config, transactions: int) -> dict:
    """The adaptive-feedback workload record."""
    runs = {}
    for label, frozen in (("adaptive", False), ("frozen", True)):
        database = build_retail_database(config)
        maintainer = _misestimated_maintainer(database, config, frozen)
        stream = make_stream(database, "mixed", transactions=transactions)
        for transaction in stream:
            maintainer.apply(transaction)
        runs[label] = maintainer
    adaptive, frozen_m = runs["adaptive"], runs["frozen"]
    adaptive_rows = total_rows_processed(adaptive)
    frozen_rows = total_rows_processed(frozen_m)
    assert frozen_m.perf.counters["replans"] == 0, (
        "the frozen maintainer must never re-plan"
    )
    return {
        "work_reduction": round(frozen_rows / max(adaptive_rows, 1), 3),
        "adaptive_rows_processed": adaptive_rows,
        "frozen_rows_processed": frozen_rows,
        "replans": adaptive.perf.counters["replans"],
        "median_q_error": median_q_error(adaptive.perf),
        "histograms": txn_histograms(adaptive.perf),
    }


def run_shared_subplans(config, transactions: int) -> dict:
    """The explicit shared-subplan-selection workload record."""
    views = (product_sales_view(config.start_year), product_sales_max_view())

    # Warehouse path: one cost-mode warehouse, explicit selection.
    warehouse_db = build_retail_database(config)
    warehouse = Warehouse(warehouse_db, list(views))
    stream = make_stream(warehouse_db, "mixed", transactions=transactions)
    admitted = rejected = 0
    for transaction in stream:
        warehouse.apply(transaction)
        cache = warehouse.last_shared_cache  # one cache per transaction
        admitted += cache.admitted
        rejected += cache.rejected
    shared_rows = sum(
        total_rows_processed(warehouse.maintainer(name))
        for name in warehouse.view_names
    )
    shared_hits = sum(
        warehouse.maintainer(name).perf.counters["plan_shared_hits"]
        for name in warehouse.view_names
    )
    selection = warehouse.shared_subplan_selection()
    lead = warehouse.maintainer(warehouse.view_names[0])

    # Standalone path: the same two views with no cross-view sharing.
    standalone_db = build_retail_database(config)
    standalone = [SelfMaintainer(v, standalone_db) for v in views]
    for transaction in make_stream(
        standalone_db, "mixed", transactions=transactions
    ):
        for maintainer in standalone:
            maintainer.apply(transaction)
    unshared_rows = sum(total_rows_processed(m) for m in standalone)

    # Every cache hit is one avoided execution of a selected subplan;
    # the hit rate is hits over all selected-subplan evaluations.
    hit_rate = shared_hits / max(shared_hits + admitted, 1)
    return {
        "work_reduction": round(unshared_rows / max(shared_rows, 1), 3),
        "shared_rows_processed": shared_rows,
        "unshared_rows_processed": unshared_rows,
        "selected_subplans": len(selection),
        "shared_hits": shared_hits,
        "shared_admitted": admitted,
        "shared_rejected": rejected,
        "shared_hit_rate": round(hit_rate, 3),
        "replans": sum(
            warehouse.maintainer(name).perf.counters["replans"]
            for name in warehouse.view_names
        ),
        "median_q_error": median_q_error(lead.perf),
        "histograms": txn_histograms(lead.perf),
    }


def run_scale(scale: str, transactions: int = 48) -> dict:
    config = SCALES[scale]
    return {
        "fact_rows": config.fact_rows(),
        "transactions_per_stream": transactions,
        "streams": {
            "replan_convergence": run_replan_convergence(config, transactions),
            "shared_subplans": run_shared_subplans(config, transactions),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale", choices=[*SCALES, "all"], default="small",
        help="warehouse scale (default: small)",
    )
    parser.add_argument(
        "--transactions", type=int, default=48,
        help="transactions per stream (default: 48)",
    )
    parser.add_argument(
        "--out", default="BENCH_planner.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    scales = list(SCALES) if args.scale == "all" else [args.scale]
    report = {"benchmark": "planner_adaptivity", "scales": {}}
    for scale in scales:
        print(f"== scale: {scale} ==")
        measured = run_scale(scale, transactions=args.transactions)
        report["scales"][scale] = measured
        for kind, numbers in measured["streams"].items():
            q = numbers["median_q_error"]
            print(
                f"  {kind:<18} work_reduction {numbers['work_reduction']:>6.2f}x  "
                f"replans {numbers['replans']:>2}  "
                f"median q-error {q if q is not None else 'n/a'}"
            )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


def test_planner_smoke():
    """CI smoke: smallest scale, short streams, both savings real."""
    measured = run_scale("small", transactions=16)
    replan = measured["streams"]["replan_convergence"]
    assert replan["replans"] >= 1, "the planted misestimate must re-plan"
    assert replan["work_reduction"] > 1.0, (
        "adaptive re-planning must reduce rows processed"
    )
    shared = measured["streams"]["shared_subplans"]
    assert shared["selected_subplans"] >= 1
    assert shared["shared_hits"] >= 1
    assert shared["work_reduction"] > 1.0, (
        "shared-subplan selection must reduce rows processed"
    )
    for record in (replan, shared):
        for name, summary in record["histograms"].items():
            assert summary["count"] > 0, name


if __name__ == "__main__":
    raise SystemExit(main())
