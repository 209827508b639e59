"""Shared scale-setup and stream-driving harness for the benchmarks.

Every benchmark replays the same deterministic, integrity-valid update
streams against maintainers over identically-built retail warehouses;
this module owns that common machinery — the scale configurations, the
benchmark view, the stream generator, the replay loop, and the
equivalence and histogram helpers — so the per-benchmark files only
differ in *what* they compare (memory vs columnar, 1 shard vs N,
adaptive vs frozen planning).
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.view import JoinCondition, make_view
from repro.engine.aggregates import AggregateFunction
from repro.engine.deltas import Delta, Transaction
from repro.engine.expressions import Column, Comparison, Literal
from repro.engine.operators import AggregateItem, GroupByItem
from repro.perf import TXN_DELTA_ROWS, TXN_LATENCY_MS, TXN_ROWS_PER_SEC
from repro.workloads.retail import RetailConfig

SCALES = {
    "small": RetailConfig(
        days=30, stores=2, products=200, products_sold_per_day=10,
        transactions_per_product=2, start_year=1997, seed=11,
    ),
    "medium": RetailConfig(
        days=90, stores=3, products=1000, products_sold_per_day=20,
        transactions_per_product=2, start_year=1997, seed=11,
    ),
    "large": RetailConfig(
        days=180, stores=4, products=3000, products_sold_per_day=25,
        transactions_per_product=2, start_year=1997, seed=11,
    ),
}

STREAMS = ("insert_heavy", "delete_heavy", "mixed")


def hotpath_view(year: int = 1997):
    """A fully-CSMAS view (no DISTINCT), so throughput measures the
    maintenance loop itself rather than Section 3.2's recomputation."""
    return make_view(
        "monthly_category_sales",
        ("sale", "time", "product"),
        [
            GroupByItem(Column("month", "time")),
            GroupByItem(Column("category", "product")),
            AggregateItem(
                AggregateFunction.SUM, Column("price", "sale"), alias="TotalPrice"
            ),
            AggregateItem(AggregateFunction.COUNT, None, alias="TotalCount"),
        ],
        selection=[Comparison("=", Column("year", "time"), Literal(year))],
        joins=[
            JoinCondition("sale", "timeid", "time", "id"),
            JoinCondition("sale", "productid", "product", "id"),
        ],
    )


def make_stream(
    database,
    kind: str,
    transactions: int = 120,
    batch: int = 8,
    seed: int = 5,
    hot_key_fraction: float = 0.0,
) -> list[Transaction]:
    """A deterministic, integrity-valid stream of ``sale`` transactions.

    ``insert_heavy`` is ~80% insertions, ``delete_heavy`` ~80% deletions
    of live rows, and ``mixed`` alternates both and adds churn pairs —
    live rows deleted and re-inserted within one transaction, which
    delta coalescing cancels before maintenance.

    ``hot_key_fraction`` skews fresh insertions: that fraction of new
    rows lands on one fixed ``(time, product)`` combination — i.e. one
    group of the view, hence one shard of a partitioned backend.  The
    default 0.0 draws keys uniformly (and consumes no extra randomness,
    so existing benchmark streams are unchanged).
    """
    rng = random.Random(seed)
    live = list(database.relation("sale"))
    next_id = max(row[0] for row in live) + 1
    days = len(database.relation("time"))
    products = len(database.relation("product"))
    stores = len(database.relation("store"))
    stream: list[Transaction] = []

    def fresh_rows(count: int) -> list[tuple]:
        nonlocal next_id
        rows = []
        for __ in range(count):
            if hot_key_fraction and rng.random() < hot_key_fraction:
                day, product = 1, 1
            else:
                day = rng.randint(1, days)
                product = rng.randint(1, products)
            rows.append(
                (
                    next_id,
                    day,
                    product,
                    rng.randint(1, stores),
                    rng.randint(50, 5_000),
                )
            )
            next_id += 1
        return rows

    def take_live(count: int) -> list[tuple]:
        count = min(count, len(live))
        taken = []
        for __ in range(count):
            taken.append(live.pop(rng.randrange(len(live))))
        return taken

    for step in range(transactions):
        inserted: list[tuple] = []
        deleted: list[tuple] = []
        if kind == "insert_heavy":
            inserted = fresh_rows(batch)
            if step % 5 == 4:
                deleted = take_live(batch // 4)
        elif kind == "delete_heavy":
            deleted = take_live(batch)
            if step % 5 == 4:
                inserted = fresh_rows(batch // 4)
        else:  # mixed: half in, half out, plus churn pairs
            inserted = fresh_rows(batch // 2)
            deleted = take_live(batch // 2)
            churn = take_live(batch // 2)
            inserted += churn  # churn returns to live below, via inserted
            deleted += churn
        live.extend(inserted)
        stream.append(Transaction.of(Delta("sale", inserted, deleted)))
    return stream


def delta_rows_of(stream) -> int:
    """Total delta rows a stream carries (the throughput denominator)."""
    return sum(
        len(d.inserted) + len(d.deleted) for tx in stream for d in tx
    )


def replay(maintainer, stream) -> float:
    """Apply every transaction; return elapsed wall-clock seconds."""
    started = time.perf_counter()
    for transaction in stream:
        maintainer.apply(transaction)
    return time.perf_counter() - started


def assert_equivalent(context: str, left, right) -> None:
    """Assert two maintainers hold bag-identical views and auxiliaries."""
    if not left.current_view().same_bag(right.current_view()):
        raise AssertionError(f"{context}: views diverged")
    for table in left.aux_relations():
        if not left.aux_relation(table).same_bag(right.aux_relation(table)):
            raise AssertionError(f"{context}: aux {table} diverged")


def txn_histograms(perf) -> dict:
    """Per-transaction distribution summaries (count/sum/p50/p95/p99)
    every benchmark record carries — the regression gate requires them."""
    return {
        "txn_latency_ms": perf.histogram_summary(TXN_LATENCY_MS),
        "txn_delta_rows": perf.histogram_summary(TXN_DELTA_ROWS),
        "txn_rows_per_sec": perf.histogram_summary(TXN_ROWS_PER_SEC),
    }
