"""repro.obs — the end-to-end observability layer.

Cooperating facilities, deliberately dependency-free (nothing in here
imports the engine, the planner, or the warehouse, so every layer above
can use them):

:mod:`repro.obs.metrics`
    A :class:`MetricsRegistry` of named counters, gauges, and
    fixed-bucket histograms (p50/p95/p99 derivable), exportable as
    Prometheus text exposition and as JSONL snapshots; thread-safe
    under the serving layer's concurrent readers.
    :class:`~repro.perf.PerfStats` is a thin façade over one of these.

:mod:`repro.obs.trace`
    A :class:`Tracer` producing per-transaction trace trees: one root
    span per maintained transaction, one child span per maintenance
    phase, and nested plan-node spans carrying wall time, input/output
    row counts, index-probe counts, and cache-hit flags.  Traces
    propagate across threads and processes via ``traceparent``
    contexts, reassemble with :func:`stitch_traces` /
    :meth:`Trace.graft`, export as JSONL (round-trippable, versioned
    ``schema``), and render as flame-style text trees.  The
    ``sample_every`` knob keeps the default overhead near zero while
    error tail-sampling keeps every failure.

:mod:`repro.obs.log`
    A leveled, bounded, trace-correlated :class:`EventLog` narrating
    operational moments (txn commit/rollback, checkpoints,
    faults, backpressure) as JSONL events.

:mod:`repro.obs.health`
    :class:`SLOTracker` — availability + p99 budgets over a rolling
    window of request outcomes, behind the serving ``/healthz``.

:mod:`repro.obs.top`
    The ``repro top`` terminal dashboard: a stdlib Prometheus text
    parser plus rate/quantile rendering over a live ``/metrics``.

:mod:`repro.obs.stats`
    :class:`ActualStats`, the per-plan-node runtime accumulator behind
    ``explain --analyze`` and ``Warehouse.runtime_stats()`` — the
    observed cardinality and time of every executed plan node.
"""

from repro.obs.health import SLOTracker
from repro.obs.log import (
    EVENT_SCHEMA_VERSION,
    Event,
    EventLog,
    read_events_jsonl,
)
from repro.obs.metrics import (
    CounterMetric,
    Gauge,
    Histogram,
    MetricsRegistry,
    DELTA_ROWS_BUCKETS,
    LATENCY_MS_BUCKETS,
    ROWS_PER_SEC_BUCKETS,
)
from repro.obs.stats import ActualStats, collect_node_stats
from repro.obs.trace import (
    TRACE_SCHEMA_VERSION,
    Span,
    Trace,
    Tracer,
    format_traceparent,
    parse_traceparent,
    read_trace_jsonl,
    stitch_traces,
)

__all__ = [
    "ActualStats",
    "CounterMetric",
    "DELTA_ROWS_BUCKETS",
    "EVENT_SCHEMA_VERSION",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "LATENCY_MS_BUCKETS",
    "MetricsRegistry",
    "ROWS_PER_SEC_BUCKETS",
    "SLOTracker",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "Trace",
    "Tracer",
    "collect_node_stats",
    "format_traceparent",
    "parse_traceparent",
    "read_events_jsonl",
    "read_trace_jsonl",
    "stitch_traces",
]
