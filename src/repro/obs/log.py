"""Structured event log: leveled, trace-correlated operational events.

Where metrics aggregate and traces profile, the event log *narrates*:
one timestamped record per operationally interesting moment — a
transaction beginning, committing, or rolling back; the planner
re-planning past its q-error threshold; a checkpoint being written or
restored; a fault firing; the apply queue shedding load.  Events carry
a ``ctx`` (the ``traceparent`` of the span active when they were
emitted, see :mod:`repro.obs.trace`), so a rollback event joins the
exact request/batch/transaction tree that produced it.

The log is a bounded ring (old events fall off) guarded by a lock —
serving handler threads, the apply-queue worker, and the maintainer all
emit into one :class:`EventLog`.  Export is JSONL (``schema`` stamped,
one event per line) via :meth:`EventLog.write_jsonl` /
:func:`read_events_jsonl`, the ``repro events`` CLI, and the serving
layer's ``/events`` endpoint.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, deque
from typing import Callable, Iterable

#: Version stamped on every exported event record.
EVENT_SCHEMA_VERSION = 1

#: Severity levels, lowest to highest.
LEVELS = ("debug", "info", "warn", "error")

_LEVEL_RANK = {name: rank for rank, name in enumerate(LEVELS)}


class Event:
    """One structured log record."""

    __slots__ = ("seq", "ts", "level", "name", "ctx", "fields")

    def __init__(
        self,
        seq: int,
        ts: float,
        level: str,
        name: str,
        ctx: str | None,
        fields: dict,
    ):
        self.seq = seq
        self.ts = ts
        self.level = level
        self.name = name
        self.ctx = ctx
        self.fields = fields

    def to_dict(self) -> dict:
        return {
            "schema": EVENT_SCHEMA_VERSION,
            "seq": self.seq,
            "ts": round(self.ts, 6),
            "level": self.level,
            "name": self.name,
            "ctx": self.ctx,
            **self.fields,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Event":
        fields = {
            key: value
            for key, value in record.items()
            if key not in ("schema", "seq", "ts", "level", "name", "ctx")
        }
        return cls(
            record["seq"],
            record["ts"],
            record["level"],
            record["name"],
            record.get("ctx"),
            fields,
        )

    def render(self) -> str:
        parts = [f"{key}={value}" for key, value in self.fields.items()]
        if self.ctx:
            parts.append(f"ctx={self.ctx}")
        suffix = ("  " + " ".join(parts)) if parts else ""
        return f"[{self.seq:>6}] {self.level.upper():<5} {self.name}{suffix}"

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return f"Event({self.seq}, {self.level!r}, {self.name!r})"


class EventLog:
    """Bounded, thread-safe ring of :class:`Event` records.

    ``capacity`` bounds memory (the ring keeps the newest events);
    ``min_level`` drops emissions below a severity floor before they
    cost anything.  Per-level totals survive ring eviction so operators
    can see "N errors ever" even after the records themselves rotated
    out.
    """

    def __init__(
        self,
        capacity: int = 2048,
        min_level: str = "debug",
        clock: Callable[[], float] = time.time,
    ):
        if min_level not in _LEVEL_RANK:
            raise ValueError(f"unknown level {min_level!r}; use one of {LEVELS}")
        self.capacity = capacity
        self.min_level = min_level
        self._clock = clock
        self._seq = 0
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._totals: Counter = Counter()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Emission.
    # ------------------------------------------------------------------

    def emit(
        self, level: str, name: str, ctx: str | None = None, **fields
    ) -> Event | None:
        """Record one event; returns None when below the level floor.
        ``ctx`` is the ``traceparent`` of the related span, when one is
        active (pass ``trace.context()`` or a propagated context)."""
        rank = _LEVEL_RANK.get(level)
        if rank is None:
            raise ValueError(f"unknown level {level!r}; use one of {LEVELS}")
        if rank < _LEVEL_RANK[self.min_level]:
            return None
        with self._lock:
            event = Event(self._seq, self._clock(), level, name, ctx, fields)
            self._seq += 1
            self._ring.append(event)
            self._totals[level] += 1
        return event

    def debug(self, name: str, ctx: str | None = None, **fields) -> Event | None:
        return self.emit("debug", name, ctx, **fields)

    def info(self, name: str, ctx: str | None = None, **fields) -> Event | None:
        return self.emit("info", name, ctx, **fields)

    def warn(self, name: str, ctx: str | None = None, **fields) -> Event | None:
        return self.emit("warn", name, ctx, **fields)

    def error(self, name: str, ctx: str | None = None, **fields) -> Event | None:
        return self.emit("error", name, ctx, **fields)

    # ------------------------------------------------------------------
    # Inspection / export.
    # ------------------------------------------------------------------

    def events(
        self,
        level: str | None = None,
        name: str | None = None,
        limit: int | None = None,
    ) -> list[Event]:
        """Newest-last view of the ring, optionally filtered to events
        at-or-above ``level`` and/or matching a ``name`` prefix, capped
        to the last ``limit`` (``0`` selects nothing; a negative
        ``limit`` raises :class:`ValueError`)."""
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be non-negative, not {limit}")
        if limit == 0:
            return []
        floor = _LEVEL_RANK[level] if level is not None else 0
        with self._lock:
            selected = [
                event
                for event in self._ring
                if _LEVEL_RANK[event.level] >= floor
                and (name is None or event.name.startswith(name))
            ]
        if limit is not None:
            selected = selected[-limit:]
        return selected

    @property
    def totals(self) -> dict[str, int]:
        """Per-level emission totals since creation (eviction-proof)."""
        with self._lock:
            return dict(self._totals)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def to_dicts(
        self, level: str | None = None, limit: int | None = None
    ) -> list[dict]:
        return [event.to_dict() for event in self.events(level=level, limit=limit)]

    def to_jsonl(self, level: str | None = None) -> str:
        return "\n".join(
            json.dumps(record, sort_keys=True)
            for record in self.to_dicts(level=level)
        )

    def write_jsonl(self, path, level: str | None = None) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl(level=level) + "\n")

    def render(self, level: str | None = None, limit: int | None = 40) -> str:
        return "\n".join(
            event.render() for event in self.events(level=level, limit=limit)
        )


def read_events_jsonl(path) -> list[Event]:
    """Rebuild events from a JSONL export (inverse of
    :meth:`EventLog.write_jsonl`)."""
    events: list[Event] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            events.append(Event.from_dict(json.loads(line)))
    return events


def correlate(events: Iterable[Event]) -> dict[str, list[Event]]:
    """Group events by the 32-hex trace id embedded in their ``ctx``
    (events with no context group under ``""``)."""
    grouped: dict[str, list[Event]] = {}
    for event in events:
        key = ""
        if event.ctx:
            parts = event.ctx.split("-")
            if len(parts) == 4:
                key = parts[1]
        grouped.setdefault(key, []).append(event)
    return grouped
