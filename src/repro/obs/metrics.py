"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the single store behind all runtime metrics.  Identity
is ``(name, labels)``; metrics are created on first touch and accumulate
for the registry's lifetime (reset explicitly).  Two export formats:

* :meth:`MetricsRegistry.render_prometheus` — Prometheus text
  exposition (``# TYPE`` headers, ``_bucket``/``_sum``/``_count``
  histogram series with ``le`` labels);
* :meth:`MetricsRegistry.to_jsonl` / :meth:`write_jsonl` — one JSON
  object per metric, for offline diffing and dashboards.

Histograms use fixed bucket bounds chosen at creation, so merging two
registries (``Warehouse`` merges its maintainers') is exact, and
quantiles (p50/p95/p99) are derived by linear interpolation within the
bucket that crosses the target rank — the standard Prometheus
``histogram_quantile`` estimate, tightened by the exact observed
minimum and maximum.

A *counter group* is a registry-owned :class:`collections.Counter`
exported as one labeled metric family (``name{label_key="entry"}``).
It exists so hot paths (:class:`~repro.perf.PerfStats`) can keep doing
plain ``Counter`` arithmetic while the exporter still sees every value:
the group *is* the store, not a copy.

**Thread safety.**  The serving layer observes histograms and bumps
counters from concurrent reader threads while ``/metrics`` scrapes
snapshot and merge registries, so every individual metric guards its
mutable state with a lock and exports through atomic state snapshots;
the registry itself locks metric creation.  The one deliberate
exception is counter *groups*: their zero-copy contract (plain
``Counter`` arithmetic on the hot path) rules out per-increment
locking, so they stay single-writer and exporters copy them with a
bounded retry against dict-resize races.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from collections import Counter
from typing import Iterator

#: Default bucket bounds (upper-inclusive) for per-transaction wall time.
LATENCY_MS_BUCKETS = (
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1_000.0, 2_500.0, 10_000.0,
)

#: Bucket bounds for serving-layer read latency: finer sub-millisecond
#: resolution at the low end (snapshot reads are dict copies, far
#: cheaper than maintenance transactions) with enough headroom to see a
#: reader stalling behind a writer.
READ_LATENCY_MS_BUCKETS = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0,
    50.0, 100.0, 250.0, 1_000.0,
)

#: Default bucket bounds for per-transaction delta sizes (rows).
DELTA_ROWS_BUCKETS = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1_024, 4_096, 16_384, 65_536,
)

#: Default bucket bounds for maintenance throughput (delta rows / second).
ROWS_PER_SEC_BUCKETS = (
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000,
    100_000, 250_000, 500_000, 1_000_000,
)

#: Bucket bounds for the cost planner's q-error (estimate-vs-actual
#: cardinality ratio, always >= 1).  The first bucket is the perfect
#: estimate; the re-plan threshold defaults into the 4.0 bucket.
QERROR_BUCKETS = (
    1.0, 1.5, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0,
)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _sanitize_name(name: str) -> str:
    out = [
        c if c.isascii() and (c.isalnum() or c in "_:") else "_" for c in name
    ]
    if out and out[0].isdigit():
        out.insert(0, "_")
    return "".join(out) or "_"


def _render_labels(labels: _LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [*labels, *extra]
    if not pairs:
        return ""
    inner = ",".join(f'{_sanitize_name(k)}="{_escape_label(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _copy_counter(group: Counter) -> Counter:
    """Copy a live (possibly concurrently-mutated) counter group.  The
    group's single writer may add a key mid-iteration; retry the bounded
    handful of times a resize can realistically interleave."""
    for _ in range(8):
        try:
            return Counter(group)
        except RuntimeError:  # pragma: no cover - timing-dependent
            continue
    return Counter(dict(group.items()))  # pragma: no cover - last resort


class CounterMetric:
    """A monotonically increasing count (thread-safe)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: _LabelKey):
        self.name = name
        self.labels = labels
        self.value: float = 0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount


class Gauge:
    """A point-in-time value (set, not accumulated; thread-safe)."""

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: _LabelKey):
        self.name = name
        self.labels = labels
        self.value: float = 0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    ``bounds`` are upper-inclusive bucket edges; one overflow bucket
    (``+Inf``) is implicit.  Quantiles interpolate linearly inside the
    crossing bucket, clamped to the observed ``[min, max]`` so a
    single-value histogram reports that value at every percentile.

    Thread-safe: ``observe`` and ``merge`` mutate under a lock, and
    every read path (quantiles, summaries, exports) derives from one
    atomic state snapshot, so a scrape racing an observe never sees a
    bucket-count/total tear.
    """

    __slots__ = (
        "name", "labels", "bounds", "bucket_counts", "count", "total",
        "minimum", "maximum", "_lock",
    )

    def __init__(self, name: str, labels: _LabelKey, bounds: tuple[float, ...]):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be non-empty and ascending")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        bucket = bisect_left(self.bounds, value)
        with self._lock:
            self.bucket_counts[bucket] += 1
            self.count += 1
            self.total += value
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    def _state(self) -> tuple[list[int], int, float, float | None, float | None]:
        """Atomic (bucket_counts, count, total, min, max) snapshot."""
        with self._lock:
            return (
                list(self.bucket_counts),
                self.count,
                self.total,
                self.minimum,
                self.maximum,
            )

    def _quantile_from(
        self,
        counts: list[int],
        count: int,
        minimum: float | None,
        maximum: float | None,
        q: float,
    ) -> float | None:
        if count == 0:
            return None
        target = q * count
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if bucket_count == 0:
                continue
            lo = self.bounds[index - 1] if index > 0 else 0.0
            hi = self.bounds[index] if index < len(self.bounds) else maximum
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= target:
                fraction = (target - previous) / bucket_count
                estimate = lo + (hi - lo) * fraction
                return min(max(estimate, minimum), maximum)
        return maximum  # pragma: no cover - rounding guard

    def quantile(self, q: float) -> float | None:
        """The estimated ``q``-quantile (``0 < q <= 1``); None when empty."""
        counts, count, _, minimum, maximum = self._state()
        return self._quantile_from(counts, count, minimum, maximum, q)

    def summary(self) -> dict:
        """count/sum plus the derived p50/p95/p99 (and exact min/max)."""
        counts, count, total, minimum, maximum = self._state()

        def quantile(q: float) -> float | None:
            return _round_or_none(
                self._quantile_from(counts, count, minimum, maximum, q)
            )

        return {
            "count": count,
            "sum": round(total, 6),
            "min": minimum,
            "max": maximum,
            "p50": quantile(0.50),
            "p95": quantile(0.95),
            "p99": quantile(0.99),
        }

    def export(self) -> dict:
        """Summary plus per-bucket counts, from one atomic snapshot."""
        counts, count, total, minimum, maximum = self._state()

        def quantile(q: float) -> float | None:
            return _round_or_none(
                self._quantile_from(counts, count, minimum, maximum, q)
            )

        return {
            "buckets": {
                _format_value(bound): bucket_count
                for bound, bucket_count in zip(self.bounds, counts)
            },
            "overflow": counts[-1],
            "count": count,
            "sum": round(total, 6),
            "min": minimum,
            "max": maximum,
            "p50": quantile(0.50),
            "p95": quantile(0.95),
            "p99": quantile(0.99),
        }

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ValueError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ"
            )
        # Snapshot the source first (its own lock), then fold under
        # ours: no nested lock acquisition, so merge direction can never
        # deadlock against a concurrent opposite-direction merge.
        counts, count, total, minimum, maximum = other._state()
        with self._lock:
            for index, bucket_count in enumerate(counts):
                self.bucket_counts[index] += bucket_count
            self.count += count
            self.total += total
            if minimum is not None:
                if self.minimum is None or minimum < self.minimum:
                    self.minimum = minimum
            if maximum is not None:
                if self.maximum is None or maximum > self.maximum:
                    self.maximum = maximum


def _round_or_none(value: float | None, digits: int = 4) -> float | None:
    return None if value is None else round(value, digits)


class MetricsRegistry:
    """All metrics of one component, keyed by ``(name, labels)``."""

    __slots__ = ("_counters", "_gauges", "_histograms", "_groups", "_lock")

    def __init__(self):
        self._counters: dict[tuple[str, _LabelKey], CounterMetric] = {}
        self._gauges: dict[tuple[str, _LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, _LabelKey], Histogram] = {}
        self._groups: dict[tuple[str, str], Counter] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Creation / lookup.
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels: str) -> CounterMetric:
        key = (name, _label_key(labels))
        metric = self._counters.get(key)
        if metric is None:
            with self._lock:
                metric = self._counters.get(key)
                if metric is None:
                    metric = self._counters[key] = CounterMetric(name, key[1])
        return metric

    def gauge(self, name: str, **labels: str) -> Gauge:
        key = (name, _label_key(labels))
        metric = self._gauges.get(key)
        if metric is None:
            with self._lock:
                metric = self._gauges.get(key)
                if metric is None:
                    metric = self._gauges[key] = Gauge(name, key[1])
        return metric

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = LATENCY_MS_BUCKETS,
        **labels: str,
    ) -> Histogram:
        key = (name, _label_key(labels))
        metric = self._histograms.get(key)
        if metric is None:
            with self._lock:
                metric = self._histograms.get(key)
                if metric is None:
                    metric = self._histograms[key] = Histogram(
                        name, key[1], buckets
                    )
        return metric

    def counter_group(self, name: str, label_key: str) -> Counter:
        """A registry-owned :class:`collections.Counter` exported as the
        labeled counter family ``name{label_key="<entry>"}``.  The
        returned object IS the live store — callers mutate it directly
        (the zero-copy hot path behind :class:`~repro.perf.PerfStats`),
        which also means groups are single-writer by contract: the
        registry lock covers creation, not mutation.
        """
        key = (name, label_key)
        group = self._groups.get(key)
        if group is None:
            with self._lock:
                group = self._groups.get(key)
                if group is None:
                    group = self._groups[key] = Counter()
        return group

    def _tables(self) -> tuple[list, list, list, list]:
        """Stable (groups, counters, gauges, histograms) item lists —
        the iteration-safe view every exporter and merge works from."""
        with self._lock:
            return (
                list(self._groups.items()),
                list(self._counters.items()),
                list(self._gauges.items()),
                list(self._histograms.items()),
            )

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s metrics into this registry (sums counts and
        histograms; gauges add, matching their use as occupancy levels)."""
        groups, counters, gauges, histograms = other._tables()
        for (name, label_key), group in groups:
            self.counter_group(name, label_key).update(_copy_counter(group))
        for (name, labels), metric in counters:
            self.counter(name, **dict(labels)).inc(metric.value)
        for (name, labels), metric in gauges:
            self.gauge(name, **dict(labels)).inc(metric.value)
        for (name, labels), metric in histograms:
            self.histogram(name, metric.bounds, **dict(labels)).merge(metric)

    def reset(self) -> None:
        """Zero every metric (group Counters stay bound to their callers)."""
        with self._lock:
            for group in self._groups.values():
                group.clear()
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # ------------------------------------------------------------------
    # Export.
    # ------------------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """One JSON-serializable record per metric, deterministic order."""
        groups, counters, gauges, histograms = self._tables()
        records: list[dict] = []
        for (name, label_key), group in sorted(groups):
            for entry, value in sorted(_copy_counter(group).items()):
                records.append(
                    {
                        "type": "counter",
                        "name": name,
                        "labels": {label_key: entry},
                        "value": value,
                    }
                )
        for (name, labels), metric in sorted(counters):
            records.append(
                {
                    "type": "counter",
                    "name": name,
                    "labels": dict(labels),
                    "value": metric.value,
                }
            )
        for (name, labels), metric in sorted(gauges):
            records.append(
                {
                    "type": "gauge",
                    "name": name,
                    "labels": dict(labels),
                    "value": metric.value,
                }
            )
        for (name, labels), metric in sorted(histograms):
            records.append(
                {
                    "type": "histogram",
                    "name": name,
                    "labels": dict(labels),
                    **metric.export(),
                }
            )
        return records

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(record, sort_keys=True) for record in self.snapshot()
        )

    def write_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl() + "\n")

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        return "\n".join(self._prometheus_lines()) + "\n"

    def _prometheus_lines(self) -> Iterator[str]:
        families: dict[str, tuple[str, list[str]]] = {}
        groups, counters, gauges, histograms = self._tables()

        def family(name: str, kind: str) -> list[str]:
            safe = _sanitize_name(name)
            entry = families.get(safe)
            if entry is None:
                entry = families[safe] = (kind, [])
            return entry[1]

        for (name, label_key), group in sorted(groups):
            lines = family(name, "counter")
            for entry, value in sorted(_copy_counter(group).items()):
                labels = _render_labels(((label_key, entry),))
                lines.append(f"{_sanitize_name(name)}{labels} {_format_value(value)}")
        for (name, labels), metric in sorted(counters):
            family(name, "counter").append(
                f"{_sanitize_name(name)}{_render_labels(metric.labels)} "
                f"{_format_value(metric.value)}"
            )
        for (name, labels), metric in sorted(gauges):
            family(name, "gauge").append(
                f"{_sanitize_name(name)}{_render_labels(metric.labels)} "
                f"{_format_value(metric.value)}"
            )
        for (name, labels), metric in sorted(histograms):
            lines = family(name, "histogram")
            safe = _sanitize_name(name)
            counts, count, total, _minimum, _maximum = metric._state()
            cumulative = 0
            for bound, bucket_count in zip(metric.bounds, counts):
                cumulative += bucket_count
                le = _render_labels(metric.labels, (("le", _format_value(bound)),))
                lines.append(f"{safe}_bucket{le} {cumulative}")
            le = _render_labels(metric.labels, (("le", "+Inf"),))
            lines.append(f"{safe}_bucket{le} {count}")
            lines.append(
                f"{safe}_sum{_render_labels(metric.labels)} "
                f"{_format_value(round(total, 6))}"
            )
            lines.append(
                f"{safe}_count{_render_labels(metric.labels)} {count}"
            )
        for safe, (kind, lines) in sorted(families.items()):
            yield f"# TYPE {safe} {kind}"
            yield from lines
