"""Aggregation rules shared by every workload (see README, "Aggregation")."""

from __future__ import annotations

import math
import statistics

#: IQR/median across rounds above which a metric is flagged (information
#: for the reader, never a gate).
DISTURBED_IQR = 0.15


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile: with 200 samples, p95 leaves 10 beyond it."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def second_best(values: list[float], better: str) -> float:
    """The second-best round: interference on a shared host only ever
    adds time, while the program's own periodic costs recur in every
    round, so the least-disturbed rounds keep them.  The single best
    round is dropped as a possible lucky outlier."""
    ordered = sorted(values, reverse=(better == "higher"))
    return ordered[min(1, len(ordered) - 1)]


def summarise(values: list[float], better: str) -> dict:
    """``value`` (second-best) plus the median, IQR and count across
    rounds, and the ``disturbed`` flag."""
    median = statistics.median(values)
    if len(values) >= 4:
        q1, __, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    else:
        iqr = max(values) - min(values)
    return {
        "value": second_best(values, better),
        "median": median,
        "iqr": iqr,
        "n": len(values),
        "disturbed": bool(median) and iqr / abs(median) > DISTURBED_IQR,
    }
