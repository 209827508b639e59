"""`repro top`: a live terminal dashboard over a serving endpoint.

Polls ``/metrics`` (Prometheus text exposition) and ``/healthz`` on a
running ``repro serve`` instance and renders the numbers an operator
watches during a load event: apply throughput (rate between polls),
queue depth and lag, snapshot version, and read latency quantiles.

Everything here is stdlib: :func:`parse_prometheus` is a small text
exposition parser (names, label sets, values, histogram ``_bucket``
series), :func:`histogram_quantile` re-derives quantiles from
cumulative bucket counts exactly like its PromQL namesake, and
:class:`Dashboard` keeps the previous sample so counters render as
rates.  ``--once`` prints a single frame (used by tests and CI smoke).
"""

from __future__ import annotations

import json
import urllib.request
from urllib.error import URLError

Sample = tuple[dict, float]  # (labels, value)


def parse_prometheus(text: str) -> dict[str, list[Sample]]:
    """Parse text exposition into ``{metric_name: [(labels, value)]}``.
    ``# TYPE``/``# HELP`` lines are skipped; histogram series keep
    their ``_bucket``/``_sum``/``_count`` suffixed names."""
    metrics: dict[str, list[Sample]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            name, labels, value = _parse_sample(line)
        except ValueError:
            continue  # tolerate exposition extensions we don't know
        metrics.setdefault(name, []).append((labels, value))
    return metrics


def _parse_sample(line: str) -> tuple[str, dict, float]:
    if "{" in line:
        name, rest = line.split("{", 1)
        label_text, _, value_text = rest.rpartition("} ")
        if not _:
            raise ValueError(line)
        labels = _parse_labels(label_text)
    else:
        name, _, value_text = line.rpartition(" ")
        labels = {}
    if not name or not value_text:
        raise ValueError(line)
    return name.strip(), labels, float(value_text)


def _parse_labels(text: str) -> dict:
    labels: dict[str, str] = {}
    index = 0
    while index < len(text):
        eq = text.index("=", index)
        key = text[index:eq].lstrip(",").strip()
        if text[eq + 1] != '"':
            raise ValueError(text)
        value_chars = []
        cursor = eq + 2
        while text[cursor] != '"':
            if text[cursor] == "\\":
                cursor += 1
                escaped = text[cursor]
                value_chars.append(
                    {"n": "\n", "\\": "\\", '"': '"'}.get(escaped, escaped)
                )
            else:
                value_chars.append(text[cursor])
            cursor += 1
        labels[key] = "".join(value_chars)
        index = cursor + 1
    return labels


def metric_value(
    metrics: dict[str, list[Sample]],
    name: str,
    default: float = 0.0,
    **labels: str,
) -> float:
    """Sum of samples of ``name`` whose labels include ``labels``."""
    samples = metrics.get(name)
    if not samples:
        return default
    total = 0.0
    matched = False
    for sample_labels, value in samples:
        if all(sample_labels.get(k) == v for k, v in labels.items()):
            total += value
            matched = True
    return total if matched else default


def histogram_quantile(
    metrics: dict[str, list[Sample]], name: str, q: float
) -> float | None:
    """The ``q``-quantile from ``name``'s cumulative ``_bucket`` series
    (upper bound of the crossing bucket, interpolated within it — the
    PromQL estimate).  None when the histogram is empty or absent."""
    buckets: list[tuple[float, float]] = []
    for labels, value in metrics.get(name + "_bucket", ()):
        le = labels.get("le")
        if le is None:
            continue
        bound = float("inf") if le == "+Inf" else float(le)
        buckets.append((bound, value))
    if not buckets:
        return None
    buckets.sort()
    total = buckets[-1][1]
    if total == 0:
        return None
    target = q * total
    previous_bound, previous_count = 0.0, 0.0
    for bound, cumulative in buckets:
        if cumulative >= target:
            if bound == float("inf"):
                return previous_bound
            span = cumulative - previous_count
            fraction = 0.0 if span <= 0 else (target - previous_count) / span
            return previous_bound + (bound - previous_bound) * fraction
        previous_bound, previous_count = bound, cumulative
    return previous_bound  # pragma: no cover - rounding guard


def _rate(current: float, previous: float | None, interval: float) -> float:
    if previous is None or interval <= 0:
        return 0.0
    return max(0.0, (current - previous) / interval)


class Dashboard:
    """Stateful poller/renderer behind ``repro top``."""

    def __init__(self, url: str, timeout: float = 5.0):
        self.url = url.rstrip("/")
        self.timeout = timeout
        self._previous: dict[str, float] | None = None

    def fetch(self) -> tuple[dict[str, list[Sample]], dict]:
        """One poll: parsed ``/metrics`` plus ``/healthz`` JSON (the
        health dict is ``{}`` when the endpoint is unreachable — the
        metrics fetch is the one that raises)."""
        with urllib.request.urlopen(
            self.url + "/metrics", timeout=self.timeout
        ) as response:
            metrics = parse_prometheus(response.read().decode())
        try:
            with urllib.request.urlopen(
                self.url + "/healthz", timeout=self.timeout
            ) as response:
                health = json.loads(response.read().decode())
        except (URLError, OSError, ValueError):  # pragma: no cover - degraded
            health = {}
        return metrics, health

    def render(
        self,
        metrics: dict[str, list[Sample]],
        health: dict,
        interval: float,
    ) -> str:
        """One frame; counter deltas against the previous frame render
        as per-second rates (zero on the first frame)."""
        current = {
            "txns": metric_value(metrics, "repro_serving_txns_applied_total"),
            "batches": metric_value(metrics, "repro_serving_batches_total"),
            "reads": metric_value(metrics, "repro_serving_reads_total"),
            "rows": metric_value(metrics, "repro_serving_coalesced_rows_total"),
        }
        previous = self._previous
        self._previous = current

        def rate(key: str) -> float:
            return _rate(
                current[key],
                None if previous is None else previous.get(key),
                interval,
            )

        lines = [f"repro top — {self.url}"]
        status = health.get("status", "?")
        slo = health.get("slo") or {}
        lines.append(
            f"health   status={status}"
            f"  availability={slo.get('availability', '?')}"
            f"  slo_p99_ms={slo.get('p99_ms', '?')}"
            f"  breached={','.join(slo.get('breached', [])) or 'none'}"
        )
        lines.append(
            f"applies  {rate('txns'):>8.1f} txn/s"
            f"  {rate('batches'):>7.1f} batch/s"
            f"  {rate('rows'):>9.1f} coalesced rows/s"
            f"  total={current['txns']:.0f}"
        )
        lines.append(
            f"reads    {rate('reads'):>8.1f} read/s"
            f"  p50={_fmt_ms(histogram_quantile(metrics, 'repro_serving_read_latency_ms', 0.5))}"
            f"  p99={_fmt_ms(histogram_quantile(metrics, 'repro_serving_read_latency_ms', 0.99))}"
            f"  total={current['reads']:.0f}"
        )
        lines.append(
            f"queue    depth={metric_value(metrics, 'repro_serving_queue_depth'):.0f}"
            f"  lag={metric_value(metrics, 'repro_serving_lag_transactions'):.0f}"
            f"  version={metric_value(metrics, 'repro_serving_version'):.0f}"
            f"  rejected={metric_value(metrics, 'repro_serving_txns_rejected_total'):.0f}"
        )
        return "\n".join(lines)


def _fmt_ms(value: float | None) -> str:
    return "?" if value is None else f"{value:.2f}ms"
