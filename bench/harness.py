"""What every workload shares: building the program's inputs, cold
set-up timing, the recomputation oracle and the environment stamp."""

from __future__ import annotations

import gc
import os
import platform
import subprocess
import time
from collections import Counter
from pathlib import Path

import inputs
from metrics import E2E_BETTER
from repro.backends import resolve_backend_name
from repro.engine import compilecache
from repro.engine.deltas import Delta, Transaction
from repro.plan.cost import resolve_planner_name
from repro.sql.ddl import parse_schema
from repro.sql.parser import parse_view
from stats import percentile, summarise

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

#: Cold constructions per run; ``setup_s`` is their second-best.
SETUP_REPEATS = 9


def generate(workload, seed: int):
    """``(base rows, stream, digest)``: the only place ``--seed`` reaches."""
    rows = inputs.base_rows(workload.shape, seed)
    stream = inputs.make_stream(
        rows, workload.kind, workload.txns, workload.batch, seed + 1
    )
    return rows, stream, inputs.workload_digest(rows, stream)


def load_database(rows):
    """A source database holding the generated rows."""
    database = parse_schema(inputs.SCHEMA_SQL)
    for table, table_rows in rows.items():
        database.table(table).relation.insert_all(table_rows)
    return database


def shadow_database(rows, stream):
    """The source database after it received ``stream``: the state the
    recomputation oracle evaluates the views over.  Built from plain set
    arithmetic here, not by the program's own delta code."""
    live = dict.fromkeys(rows["sale"])
    for inserted, deleted in stream:
        for row in deleted:
            del live[row]
        live.update(dict.fromkeys(inserted))
    return load_database({**rows, "sale": list(live)})


def parse_views(names, database):
    return [parse_view(inputs.VIEW_SQL[name], database) for name in names]


def transactions(stream):
    """``(forward, inverse)``: applying both returns the warehouse to its
    starting state, so every round does the same work on the same state."""
    forward = [
        Transaction.of(Delta("sale", inserted, deleted))
        for inserted, deleted in stream
    ]
    inverse = [
        Transaction.of(*(delta.inverted() for delta in transaction))
        for transaction in reversed(forward)
    ]
    return forward, inverse


def delta_rows(transaction_list) -> int:
    """Source delta rows (inserted + deleted, before coalescing)."""
    return sum(
        len(delta.inserted) + len(delta.deleted)
        for transaction in transaction_list
        for delta in transaction
    )


def cold_setups(database, view_names, repeats: int, construct, dispose):
    """Time ``repeats`` cold constructions: parse the DDL and the view
    SQL, then ``construct(views)`` (derive X, compile, load).  Populating
    the source database is the source's job and is not timed.  Returns
    ``(seconds per construction, the last construction)``; earlier ones
    are handed to ``dispose`` untimed."""
    samples = []
    built = None
    for __ in range(repeats):
        if built is not None:
            dispose(built)
        compilecache.clear_caches()
        gc.collect()
        started = time.perf_counter()
        parse_schema(inputs.SCHEMA_SQL)
        built = construct(parse_views(view_names, database))
        samples.append(time.perf_counter() - started)
    return samples, built


def oracle_mismatches(views, shadow, read_rows) -> list[str]:
    """Names of views whose maintained rows (``read_rows(name)``) are not
    bag-equal to recomputation over the shadow source database."""
    return [
        view.name
        for view in views
        if Counter(map(tuple, read_rows(view.name)))
        != Counter(view.evaluate_eager(shadow).rows)
    ]


def storage(warehouse, views, database) -> dict:
    """The paper's headline, under its width model: bytes of ``{V} u X``
    against bytes of the source tables the views read."""
    reports = [warehouse.storage_report(view.name) for view in views]
    tables = sorted({table for view in views for table in view.tables})
    return {
        "detail_bytes": sum(report.detail_bytes for report in reports),
        "summary_bytes": sum(report.summary_bytes for report in reports),
        "source_bytes": sum(
            database.relation(table).size_bytes() for table in tables
        ),
    }


class RoundLog:
    """Per-round end-to-end timings, aggregated by the second-best rule."""

    def __init__(self):
        self._values: dict[str, list[float]] = {}

    def add(self, delta_rows: int, wall_s: float, txn_s, read_s) -> None:
        for name, value in (
            ("maintain_rows_per_s", delta_rows / wall_s),
            ("txn_p50_ms", percentile(txn_s, 0.50) * 1e3),
            ("txn_p95_ms", percentile(txn_s, 0.95) * 1e3),
            ("read_p50_ms", percentile(read_s, 0.50) * 1e3),
            ("read_p95_ms", percentile(read_s, 0.95) * 1e3),
        ):
            self._values.setdefault(name, []).append(value)

    def metrics(self, setup_samples, storage: dict, peak_rss_mb: float) -> dict:
        """Every end-to-end metric of the run."""
        measured = {
            name: summarise(values, E2E_BETTER[name])
            for name, values in self._values.items()
        }
        measured["setup_s"] = summarise(setup_samples, "lower")
        measured["detail_bytes_ratio"] = {
            "value": (storage["detail_bytes"] + storage["summary_bytes"])
            / storage["source_bytes"]
        }
        measured["peak_rss_mb"] = {"value": peak_rss_mb}
        return measured


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def git_commit() -> str | None:
    """The checkout's commit, or None outside a git repository (the
    driver's checkouts are plain directories)."""
    if not (BENCH_DIR.parent / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=BENCH_DIR, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def env_stamp(loadavg_start: str, started: float) -> dict:
    return {
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": loadavg_start,
        "loadavg_end": loadavg(),
        "default_backend": resolve_backend_name(),
        "default_planner": resolve_planner_name(),
        "wall_s": time.perf_counter() - started,
    }
