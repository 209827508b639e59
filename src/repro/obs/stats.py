"""Plan-node runtime statistics: observed cardinalities and timings.

Every :class:`~repro.plan.physical.PhysicalNode` owns one
:class:`ActualStats` accumulator, updated on every real execution (memo
and shared-cache hits are reuse, not executions, and are tracked
separately).  Because maintenance plans are compiled once per
``(table, sign)`` and cached on the maintainer — and evaluation plans
are cached per view — the accumulators persist across transactions:
after a change stream they hold exactly the *observed* per-operator
cardinalities that ``explain --analyze`` renders and that
``Warehouse.runtime_stats()`` exposes.
"""

from __future__ import annotations


class ActualStats:
    """Observed executions, output cardinality, and wall time of one node."""

    __slots__ = ("executions", "rows_out_total", "rows_out_max", "seconds", "reuses")

    def __init__(self):
        self.executions = 0
        self.rows_out_total = 0
        self.rows_out_max = 0
        self.seconds = 0.0
        self.reuses = 0

    def record(self, rows_out: int | None, seconds: float = 0.0) -> None:
        self.executions += 1
        self.seconds += seconds
        if rows_out is not None:
            self.rows_out_total += rows_out
            if rows_out > self.rows_out_max:
                self.rows_out_max = rows_out

    def record_reuse(self) -> None:
        """A memo or shared-cache hit served this node without running it."""
        self.reuses += 1

    @property
    def mean_rows_out(self) -> float:
        return self.rows_out_total / self.executions if self.executions else 0.0

    def merge(self, other: "ActualStats") -> None:
        self.executions += other.executions
        self.rows_out_total += other.rows_out_total
        self.rows_out_max = max(self.rows_out_max, other.rows_out_max)
        self.seconds += other.seconds
        self.reuses += other.reuses

    def reset(self) -> None:
        self.executions = 0
        self.rows_out_total = 0
        self.rows_out_max = 0
        self.seconds = 0.0
        self.reuses = 0

    def snapshot(self) -> dict:
        return {
            "executions": self.executions,
            "rows_out": self.rows_out_total,
            "rows_out_max": self.rows_out_max,
            "mean_rows_out": round(self.mean_rows_out, 3),
            "total_ms": round(self.seconds * 1000.0, 3),
            "reuses": self.reuses,
        }

    def describe(self) -> str | None:
        """The ``explain --analyze`` annotation; None when never run."""
        if not self.executions and not self.reuses:
            return None
        parts = [
            f"actual: execs={self.executions}",
            f"rows={self.rows_out_total}",
            f"mean={self.mean_rows_out:.1f}",
            f"time={self.seconds * 1000.0:.2f}ms",
        ]
        if self.reuses:
            parts.append(f"reuses={self.reuses}")
        return " ".join(parts)

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"ActualStats({self.snapshot()})"


def collect_node_stats(root) -> list[dict]:
    """Pre-order ``{node, label, depth, stats...}`` records for every
    unique node under ``root`` (physical trees can share subtrees)."""
    records: list[dict] = []
    seen: set[int] = set()

    def walk(node, depth: int) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        records.append(
            {
                "node": node.describe(),
                "label": node.label,
                "depth": depth,
                **node.stats.snapshot(),
            }
        )
        for child in node.children:
            walk(child, depth + 1)

    walk(root, 0)
    return records
