"""Lightweight performance counters and phase timers for the hot path.

The maintenance runtime is instrumented with named counters (rows
reduced away, index probes, groups touched, rolled-back transactions,
...) and wall-clock timings for the phases of Section 3.2's maintenance
loop: ``coalesce``, ``validate`` (the upfront no-mutation pass),
``local-reduce``, ``join-reduce``, ``aggregate-fold``, ``aux-apply``,
``recompute``, and ``rollback`` (only on failed transactions).
Overhead is two ``perf_counter`` calls per phase per transaction, so
the instrumentation can stay on in production.

:class:`PerfStats` is a thin façade over a
:class:`~repro.obs.metrics.MetricsRegistry`: its ``counters`` and
``seconds`` stores *are* registry-owned counter groups (zero-copy —
hot paths keep doing plain ``Counter`` arithmetic), and per-transaction
distributions (latency, delta size, throughput) land in the registry's
fixed-bucket histograms via :meth:`observe`.  Everything is therefore
exportable as Prometheus text exposition or JSONL through the registry,
while the historical dict/render surfaces below stay intact — including
the ``timer`` hook the fault-injection harness overrides to define
transaction phase boundaries.

Snapshots are plain dictionaries, surfaced through
``Warehouse.storage_report``/``Warehouse.perf_report``; the benchmark
(``bench/run.py``) reads the phase timers as its
``core.maintenance.phase.*`` layer metrics.
"""

from __future__ import annotations

import time

from repro.obs.metrics import (
    DELTA_ROWS_BUCKETS,
    LATENCY_MS_BUCKETS,
    ROWS_PER_SEC_BUCKETS,
    MetricsRegistry,
)

#: Phase names in the order maintenance runs them (used for rendering).
PHASES = (
    "coalesce",
    "validate",
    "local-reduce",
    "join-reduce",
    "aggregate-fold",
    "aux-apply",
    "recompute",
    "rollback",
)

#: Registry histogram names and bucket bounds for the per-transaction
#: distributions the maintainer observes (see ``SelfMaintainer.apply``).
TXN_LATENCY_MS = "repro_txn_latency_ms"
TXN_DELTA_ROWS = "repro_txn_delta_rows"
TXN_ROWS_PER_SEC = "repro_txn_rows_per_sec"
REFRESH_PROPAGATED_ROWS = "repro_refresh_propagated_rows"
HISTOGRAM_BUCKETS = {
    TXN_LATENCY_MS: LATENCY_MS_BUCKETS,
    TXN_DELTA_ROWS: DELTA_ROWS_BUCKETS,
    TXN_ROWS_PER_SEC: ROWS_PER_SEC_BUCKETS,
    REFRESH_PROPAGATED_ROWS: DELTA_ROWS_BUCKETS,
}


class _PhaseTimer:
    """One phase timing: two ``perf_counter`` calls around the block.

    A plain class instead of ``@contextmanager`` — the generator
    machinery costs several times the measurement itself on the
    per-transaction hot path, and this runs for every phase of every
    transaction.
    """

    __slots__ = ("_seconds", "_phase", "_started")

    def __init__(self, seconds, phase: str):
        self._seconds = seconds
        self._phase = phase

    def __enter__(self) -> None:
        self._started = time.perf_counter()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._seconds[self._phase] += time.perf_counter() - self._started
        return False


class PerfStats:
    """Named counters plus per-phase cumulative wall-clock seconds."""

    __slots__ = ("registry", "counters", "seconds", "_histograms")

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        # Live registry stores, not copies: the exporter walks the same
        # Counter objects the hot path mutates.
        self.counters = self.registry.counter_group(
            "repro_maintenance_events_total", "event"
        )
        self.seconds = self.registry.counter_group(
            "repro_phase_seconds_total", "phase"
        )
        self._histograms: dict = {}

    def count(self, name: str, amount: int = 1) -> None:
        if amount:
            self.counters[name] += amount

    def timer(self, phase: str) -> _PhaseTimer:
        """A context manager timing one phase.  Stays overridable as an
        unbound call (``PerfStats.timer(self, phase)``) — the
        fault-injection harness subclasses this exact hook to define
        transaction phase boundaries."""
        return _PhaseTimer(self.seconds, phase)

    def observe(self, name: str, value: float) -> None:
        """Record one sample into the registry histogram ``name`` (bucket
        bounds from :data:`HISTOGRAM_BUCKETS`, latency bounds otherwise)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            buckets = HISTOGRAM_BUCKETS.get(name, LATENCY_MS_BUCKETS)
            histogram = self.registry.histogram(name, buckets)
            self._histograms[name] = histogram
        histogram.observe(value)

    def histogram_summary(self, name: str) -> dict:
        """count/sum/p50/p95/p99 of one observed distribution."""
        buckets = HISTOGRAM_BUCKETS.get(name, LATENCY_MS_BUCKETS)
        return self.registry.histogram(name, buckets).summary()

    def merge(self, other: "PerfStats") -> None:
        """Fold ``other`` in — counters, seconds, *and* the registry's
        histograms/gauges, so warehouse-level reports aggregate fully."""
        self.registry.merge(other.registry)

    def reset(self) -> None:
        self.registry.reset()
        # The reset registry keeps the group bindings alive; re-fetch in
        # case this PerfStats was constructed around a foreign registry.
        self.counters = self.registry.counter_group(
            "repro_maintenance_events_total", "event"
        )
        self.seconds = self.registry.counter_group(
            "repro_phase_seconds_total", "phase"
        )
        self._histograms.clear()

    def snapshot(self) -> dict:
        """A JSON-serializable copy: counters plus timings in milliseconds.

        Timings follow :data:`PHASES` execution order (then extras, e.g.
        ``plan:*`` node timers, sorted) — matching :meth:`render`, so
        benchmark JSON diffs stay stable and readable.
        """
        return {
            "counters": {name: self.counters[name] for name in sorted(self.counters)},
            "timings_ms": {
                phase: round(self.seconds[phase] * 1000.0, 3)
                for phase in self._ordered_phases()
            },
        }

    def _ordered_phases(self) -> list[str]:
        ordered = [p for p in PHASES if p in self.seconds]
        ordered += [p for p in sorted(self.seconds) if p not in PHASES]
        return ordered

    def render(self) -> str:
        """An aligned text table (for CLI and example output)."""
        lines = ["phase timings (ms):"]
        ordered = self._ordered_phases()
        phase_width = max((len(p) for p in ordered), default=0) + 2
        for phase in ordered:
            lines.append(
                f"  {phase:<{phase_width}}{self.seconds[phase] * 1000.0:>10.3f}"
            )
        if self.counters:
            lines.append("counters:")
            name_width = max(len(n) for n in self.counters) + 2
            for name in sorted(self.counters):
                lines.append(f"  {name:<{name_width}}{self.counters[name]:>12}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"PerfStats({dict(self.counters)}, {dict(self.seconds)})"
