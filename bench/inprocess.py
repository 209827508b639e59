"""The closed-loop, single-threaded workloads: one caller applies
transactions and reads summaries straight through ``Warehouse``."""

from __future__ import annotations

import gc
import resource
from time import perf_counter

import harness
from repro.testing.faults import state_fingerprint
from repro.warehouse.warehouse import Warehouse


class Fixture:
    """Generated inputs plus the warehouse under test, after cold set-up."""

    def __init__(self, workload, seed: int, setup_repeats: int):
        self.workload = workload
        self.rows, self.stream, self.digest = harness.generate(workload, seed)
        self.database = harness.load_database(self.rows)
        self.setup_samples, self.warehouse = harness.cold_setups(
            self.database, workload.views, setup_repeats,
            construct=lambda views: Warehouse(self.database, views),
            dispose=Warehouse.close,
        )
        self.views = [
            self.warehouse.maintainer(name).view for name in workload.views
        ]
        self.forward, self.inverse = harness.transactions(self.stream)
        self.round_txns = self.forward + self.inverse
        self.round_rows = harness.delta_rows(self.round_txns)

    def fingerprints(self) -> dict:
        return {
            name: state_fingerprint(self.warehouse.maintainer(name))
            for name in self.workload.views
        }

    def warm_up(self) -> tuple[dict, list[str]]:
        """One untimed round (plans compiled, indexes built, caches
        full) with the oracle at its midpoint: after the forward half
        every view must equal recomputation over a shadow source that
        received the same transactions.  Returns the storage figures
        measured at that midpoint and the views that failed the oracle."""
        for transaction in self.forward:
            self.warehouse.apply(transaction)
        shadow = harness.shadow_database(self.rows, self.stream)
        mismatched = harness.oracle_mismatches(
            self.views, shadow,
            lambda name: self.warehouse.summary(name).rows,
        )
        storage = harness.storage(self.warehouse, self.views, shadow)
        for transaction in self.inverse:
            self.warehouse.apply(transaction)
        return storage, mismatched


def play_round(warehouse, transactions, read_view: str):
    """Apply every transaction and read ``read_view`` after each; returns
    ``(wall seconds, apply latencies, read latencies, failed operations)``."""
    apply, summary = warehouse.apply, warehouse.summary
    txn_s: list[float] = []
    read_s: list[float] = []
    failed = 0
    gc.collect()
    started = perf_counter()
    for transaction in transactions:
        before = perf_counter()
        try:
            apply(transaction)
        except Exception:  # counted, and the final fingerprint will differ
            failed += 1
        after = perf_counter()
        txn_s.append(after - before)
        try:
            len(summary(read_view))
        except Exception:
            failed += 1
        read_s.append(perf_counter() - after)
    return perf_counter() - started, txn_s, read_s, failed


def run(workload, seed: int, rounds: int) -> dict:
    """The untraced pass: every end-to-end metric of one workload."""
    fixture = Fixture(workload, seed, harness.SETUP_REPEATS)
    storage, mismatched = fixture.warm_up()
    baseline = fixture.fingerprints()
    log = harness.RoundLog()
    attempted = failed = 0
    for __ in range(rounds):
        wall, txn_s, read_s, round_failed = play_round(
            fixture.warehouse, fixture.round_txns, workload.read_view
        )
        attempted += len(txn_s) + len(read_s)
        failed += round_failed
        log.add(fixture.round_rows, wall, txn_s, read_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # A view that differs from recomputation, or rounds that did not
    # return to the post-warm-up state, fail every operation since the
    # last verified point.
    restored = fixture.fingerprints() == baseline
    if mismatched or not restored:
        failed = attempted
    return {
        "workload_digest": fixture.digest,
        "correct": failed == 0,
        "oracle": {"views_differing": mismatched, "state_restored": restored},
        "attempted": attempted,
        "failed": failed,
        "rounds": rounds,
        "txns_per_round": len(fixture.round_txns),
        "reads_per_round": len(fixture.round_txns),
        "metrics": log.metrics(fixture.setup_samples, storage, peak_rss_mb),
        "exact": {"storage": storage, "round_delta_rows": fixture.round_rows},
    }
