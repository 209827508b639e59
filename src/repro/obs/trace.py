"""Structured tracing: per-transaction span trees with propagation.

A :class:`Tracer` decides (by sampling) whether one maintained
transaction is traced; a sampled transaction gets a :class:`Trace` — a
pre-order list of :class:`Span` records forming a tree:

* the **root span** covers the whole ``SelfMaintainer.apply`` call;
* one **phase span** per maintenance phase (``coalesce``, ``validate``,
  ``local-reduce``, ``join-reduce``, ``aggregate-fold``, ``aux-apply``,
  ``recompute``, ``rollback``), carrying the phase's row counts;
* nested **plan spans**, one per executed physical plan node, carrying
  wall time, input/output row counts, index-probe counts, and cache-hit
  flags (memo hits and cross-view shared-cache hits appear as
  zero-duration spans flagged ``cache_hit``).

Spans are plain mutable records (callers set ``rows_in``/``rows_out``
after the work ran); durations come from ``perf_counter`` and are
*inclusive* of children — the exclusive per-node times stay in the
``plan:*`` timers of :class:`~repro.perf.PerfStats`.

Traces compose across threads and processes through **trace contexts**:
every trace has a 32-hex ``hex_id`` and :meth:`Trace.context` renders a
W3C-style ``traceparent`` (``00-<trace>-<span>-01``) naming the
innermost open span.  A context can seed a new trace in another thread
or process (``Tracer.begin(parent=...)`` / ``Tracer.parented``), the
resulting child traces are reassembled into one tree with
:func:`stitch_traces` (which re-parents each child's serialized
subtree with :meth:`Trace.graft`) — that is how a served apply renders
HTTP request → queue batch → transaction → per-shard spans as one
connected tree.

Sampling is head-based (1-in-N), but failures are never invisible: by
default an unsampled transaction still records into a *shadow* trace
that is kept only if it ends in rollback or carries an error-flagged
span, and discarded otherwise (tail sampling).

Export is JSONL, one span object per line (``schema`` field stamps the
record version; v1 files from older exports still load), reconstructable
with :func:`read_trace_jsonl`; :meth:`Trace.render` draws a flame-style
text tree whose bar widths are proportional to each span's share of the
root's wall time.
"""

from __future__ import annotations

import json
import random
import threading
from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator, Sequence

#: Version stamped on every exported span record.  Version 1 (PR 4) had
#: no ``schema``/``ctx``/``shard`` fields; readers treat their absence
#: as v1 and default them.
TRACE_SCHEMA_VERSION = 2


def format_traceparent(hex_trace: str, span_id: int) -> str:
    """Render a W3C-style ``traceparent`` for one span of a trace."""
    return f"00-{hex_trace}-{span_id & 0xFFFFFFFFFFFFFFFF:016x}-01"


def parse_traceparent(value: str) -> tuple[str, int]:
    """Inverse of :func:`format_traceparent` → ``(hex_trace, span_id)``."""
    parts = value.split("-")
    if len(parts) != 4 or len(parts[1]) != 32 or len(parts[2]) != 16:
        raise ValueError(f"malformed traceparent: {value!r}")
    return parts[1], int(parts[2], 16)


class Span:
    """One timed operation inside a trace tree."""

    __slots__ = (
        "span_id", "parent_id", "name", "kind", "phase", "depth",
        "start_ms", "duration_ms", "rows_in", "rows_out", "index_probes",
        "cache_hit", "error", "shard", "attrs",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        kind: str,
        phase: str,
        depth: int,
        start_ms: float,
        **attrs,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.kind = kind
        self.phase = phase
        self.depth = depth
        self.start_ms = start_ms
        self.duration_ms = 0.0
        self.rows_in: int | None = None
        self.rows_out: int | None = None
        self.index_probes = 0
        self.cache_hit = False
        self.error = False
        self.shard: int | None = attrs.pop("shard", None)
        self.attrs = attrs

    def to_dict(self, trace_id: int, ctx: str | None = None) -> dict:
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "trace": trace_id,
            "ctx": ctx,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "phase": self.phase,
            "start_ms": round(self.start_ms, 4),
            "duration_ms": round(self.duration_ms, 4),
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "index_probes": self.index_probes,
            "cache_hit": self.cache_hit,
            "error": self.error,
            "shard": self.shard,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        span = cls(
            record["span"],
            record["parent"],
            record["name"],
            record["kind"],
            record["phase"],
            0,
            record["start_ms"],
            **record.get("attrs", {}),
        )
        span.duration_ms = record["duration_ms"]
        span.rows_in = record["rows_in"]
        span.rows_out = record["rows_out"]
        span.index_probes = record["index_probes"]
        span.cache_hit = record["cache_hit"]
        span.error = record["error"]
        span.shard = record.get("shard")
        return span

    def __repr__(self) -> str:  # pragma: no cover - display helper
        return (
            f"Span({self.name!r}, kind={self.kind!r}, "
            f"{self.duration_ms:.3f}ms)"
        )


class Trace:
    """The span tree of one traced transaction (spans in pre-order)."""

    __slots__ = (
        "trace_id", "label", "spans", "status", "hex_id", "sampled",
        "_stack", "_origin",
    )

    def __init__(
        self,
        trace_id: int,
        label: str,
        kind: str = "transaction",
        hex_id: str | None = None,
        parent: str | None = None,
        **attrs,
    ):
        self.trace_id = trace_id
        self.label = label
        self.spans: list[Span] = []
        self.status = "open"
        self.hex_id = hex_id or f"{trace_id & (1 << 128) - 1:032x}"
        self.sampled = True
        self._stack: list[Span] = []
        self._origin = perf_counter()
        self._open(label, kind=kind, **attrs)
        if parent is not None:
            self.root.attrs["parent_ctx"] = parent

    # ------------------------------------------------------------------
    # Span construction.
    # ------------------------------------------------------------------

    def _now_ms(self) -> float:
        return (perf_counter() - self._origin) * 1000.0

    def _open(self, name: str, kind: str, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        if kind == "phase":
            phase = name
        elif parent is not None:
            phase = parent.phase
        else:
            phase = name
        span = Span(
            span_id=len(self.spans),
            parent_id=None if parent is None else parent.span_id,
            name=name,
            kind=kind,
            phase=phase,
            depth=len(self._stack),
            start_ms=self._now_ms(),
            **attrs,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.duration_ms = self._now_ms() - span.start_ms
        while self._stack and self._stack[-1] is not span:
            self._stack.pop()  # pragma: no cover - unbalanced-exit guard
        if self._stack:
            self._stack.pop()

    @contextmanager
    def span(self, name: str, kind: str = "span", **attrs) -> Iterator[Span]:
        """Open a child span of the innermost open span; closes (and
        flags errors) even when the body raises — fault-injected phases
        still leave a well-formed tree."""
        opened = self._open(name, kind, **attrs)
        try:
            yield opened
        except BaseException:
            opened.error = True
            raise
        finally:
            self._close(opened)

    def instant(self, name: str, kind: str = "span", **attrs) -> Span:
        """A zero-duration child span (cache hits, annotations)."""
        span = self._open(name, kind, **attrs)
        self._close(span)
        span.duration_ms = 0.0
        return span

    def finish(self, status: str = "ok") -> None:
        while self._stack:
            self._close(self._stack[-1])
        self.status = status
        if self.spans:
            self.spans[0].attrs["status"] = status

    # ------------------------------------------------------------------
    # Cross-thread / cross-process composition.
    # ------------------------------------------------------------------

    def context(self, span: Span | None = None) -> str:
        """``traceparent`` naming ``span`` (default: the innermost open
        span) — hand this to another thread or process so its trace can
        be stitched back under that exact span."""
        if span is None:
            span = self._stack[-1] if self._stack else self.root
        return format_traceparent(self.hex_id, span.span_id)

    @property
    def has_error(self) -> bool:
        return self.status == "error" or any(s.error for s in self.spans)

    def graft(
        self,
        records: Sequence[dict],
        parent: Span | None = None,
    ) -> dict[int, int]:
        """Append a serialized span subtree (another trace's
        :meth:`to_dicts`, pre-order) under ``parent`` (default: the
        innermost open span).  Span ids are remapped into this trace's
        id space, subtree roots are re-parented onto ``parent``, and
        start times are clock-aligned to the graft point.  Returns the
        old→new span-id mapping."""
        if parent is None:
            parent = self._stack[-1] if self._stack else self.root
        offset = parent.start_ms
        id_map: dict[int, int] = {}
        grafted: list[Span] = []
        for record in records:
            span = Span.from_dict(record)
            old_id = span.span_id
            span.span_id = len(self.spans) + len(grafted)
            old_parent = record.get("parent")
            if old_parent is not None and old_parent in id_map:
                span.parent_id = id_map[old_parent]
            else:
                span.parent_id = parent.span_id
            span.start_ms += offset
            id_map[old_id] = span.span_id
            grafted.append(span)
        self.spans.extend(grafted)
        return id_map

    def copy(self) -> "Trace":
        """A detached deep copy (used by :func:`stitch_traces` so
        stitching never mutates the originals)."""
        clone = Trace.__new__(Trace)
        clone.trace_id = self.trace_id
        clone.label = self.label
        clone.status = self.status
        clone.hex_id = self.hex_id
        clone.sampled = self.sampled
        clone.spans = [
            Span.from_dict(span.to_dict(self.trace_id)) for span in self.spans
        ]
        clone._stack = []
        clone._origin = 0.0
        return clone

    # ------------------------------------------------------------------
    # Inspection / export.
    # ------------------------------------------------------------------

    @property
    def root(self) -> Span:
        return self.spans[0]

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def to_dicts(self) -> list[dict]:
        return [span.to_dict(self.trace_id, self.hex_id) for span in self.spans]

    def render(self, bar_width: int = 24) -> str:
        """Flame-style text tree: one line per span, duration-scaled bars."""
        total = self.root.duration_ms or 1.0
        name_width = max(
            (len("  " * self._depth_of(s)) + len(s.name) for s in self.spans),
            default=0,
        )
        lines = []
        for span in self.spans:
            indent = "  " * self._depth_of(span)
            bar = "#" * max(
                1 if span.duration_ms > 0 else 0,
                round(bar_width * span.duration_ms / total),
            )
            notes = []
            if span.rows_in is not None or span.rows_out is not None:
                rows_in = "?" if span.rows_in is None else str(span.rows_in)
                rows_out = "?" if span.rows_out is None else str(span.rows_out)
                notes.append(f"rows {rows_in}->{rows_out}")
            if span.index_probes:
                notes.append(f"probes={span.index_probes}")
            if span.cache_hit:
                notes.append("cache-hit")
            if span.shard is not None:
                notes.append(f"shard={span.shard}")
            if span.error:
                notes.append("ERROR")
            if span.kind == "transaction":
                notes.append(
                    f"status={span.attrs.get('status', self.status)}"
                )
            suffix = ("  [" + ", ".join(notes) + "]") if notes else ""
            lines.append(
                f"{indent}{span.name:<{name_width - len(indent)}}"
                f"{span.duration_ms:>10.3f}ms  {bar:<{bar_width}}{suffix}"
            )
        return "\n".join(lines)

    def _depth_of(self, span: Span) -> int:
        depth = 0
        current = span
        by_id = {s.span_id: s for s in self.spans}
        while current.parent_id is not None:
            current = by_id[current.parent_id]
            depth += 1
        return depth


class Tracer:
    """Samples transactions and keeps the most recent finished traces.

    ``sample_every=N`` head-samples the first of every ``N``
    transactions seen (``1`` traces everything, ``0`` disables tracing
    entirely — the cheap default the maintainer runs with unless one is
    installed).  ``max_traces`` bounds memory: older traces fall off a
    ring buffer.

    With ``errors_always`` (the default), an unsampled transaction
    still records into a shadow trace (``trace.sampled`` False);
    :meth:`finish` keeps it only when it failed, so rollbacks are never
    sampled away.  A trace begun with an explicit or ambient ``parent``
    context is always kept — request-linked work must form a complete
    tree.

    Thread-safe: ``begin``/``finish`` may be called from concurrent
    serving threads; the ambient parent context set by
    :meth:`parented` is thread-local.
    """

    def __init__(
        self,
        sample_every: int = 1,
        max_traces: int = 128,
        errors_always: bool = True,
    ):
        if sample_every < 0:
            raise ValueError("sample_every must be >= 0")
        self.sample_every = sample_every
        self.errors_always = errors_always
        self._seen = 0
        self._issued = 0
        self._head = 0
        self._retained_errors = 0
        self._prefix = random.getrandbits(64)
        self._lock = threading.Lock()
        self._ambient = threading.local()
        self._finished: deque[Trace] = deque(maxlen=max_traces)

    # ------------------------------------------------------------------
    # Lifecycle.
    # ------------------------------------------------------------------

    def begin(
        self,
        label: str,
        kind: str = "transaction",
        parent: str | None = None,
        links: Sequence[str] = (),
        **attrs,
    ) -> Trace | None:
        """Start a trace for the next transaction, or None when tracing
        is off or the sampler skips it and error tail-sampling is
        disabled.  ``parent`` (a ``traceparent``) forces sampling and is
        recorded for :func:`stitch_traces`; with none given, the
        thread's ambient context (see :meth:`parented`) applies.
        ``links`` records additional related contexts (e.g. the other
        requests coalesced into one batch)."""
        if parent is None:
            parent = getattr(self._ambient, "ctx", None)
        with self._lock:
            self._seen += 1
            if self.sample_every == 0:
                return None
            head = (self._seen - 1) % self.sample_every == 0
            if parent is not None:
                head = True
            if not head and not self.errors_always:
                return None
            trace_id = self._issued
            self._issued += 1
            if head:
                self._head += 1
            hex_id = f"{self._prefix:016x}{trace_id & (1 << 64) - 1:016x}"
        trace = Trace(
            trace_id, label, kind=kind, hex_id=hex_id, parent=parent, **attrs
        )
        trace.sampled = head
        if links:
            trace.root.attrs["links"] = list(links)
        return trace

    def finish(self, trace: Trace, status: str = "ok") -> None:
        trace.finish(status)
        if not trace.sampled:
            # Shadow trace: tail-sample — keep failures, drop the rest.
            if status == "ok" and not trace.has_error:
                return
            with self._lock:
                self._retained_errors += 1
        self._finished.append(trace)

    @contextmanager
    def parented(self, ctx: str | None) -> Iterator[None]:
        """Bind ``ctx`` as this thread's ambient parent context: traces
        begun on this thread inside the block become its children (the
        apply-queue worker wraps ``Warehouse.apply`` in the batch span's
        context so maintainer transaction traces join the request
        tree)."""
        if ctx is None:
            yield
            return
        previous = getattr(self._ambient, "ctx", None)
        self._ambient.ctx = ctx
        try:
            yield
        finally:
            self._ambient.ctx = previous

    # ------------------------------------------------------------------
    # Inspection / export.
    # ------------------------------------------------------------------

    @property
    def traces(self) -> list[Trace]:
        return list(self._finished)

    @property
    def last(self) -> Trace | None:
        return self._finished[-1] if self._finished else None

    @property
    def sampled(self) -> int:
        """Transactions head-sampled so far (seen minus sampled-away)."""
        return self._head

    @property
    def retained_errors(self) -> int:
        """Unsampled failures kept by error tail-sampling."""
        return self._retained_errors

    def slowest(self) -> Trace | None:
        if not self._finished:
            return None
        return max(self._finished, key=lambda t: t.root.duration_ms)

    def stitched(self) -> list[Trace]:
        """Finished traces with parent-context references resolved into
        single connected trees (see :func:`stitch_traces`)."""
        return stitch_traces(self.traces)

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps(record, sort_keys=True)
            for trace in self._finished
            for record in trace.to_dicts()
        )

    def export_jsonl(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl() + "\n")


def stitch_traces(traces: Sequence[Trace]) -> list[Trace]:
    """Resolve ``parent_ctx`` references among ``traces`` and graft each
    child trace under the exact span its context names, returning the
    roots (traces whose parent is absent stay roots).  Inputs are not
    mutated.  This is how one served apply — request trace, queue batch
    trace, per-view transaction traces with their per-shard spans — is
    reassembled into a single connected tree."""
    by_hex: dict[str, Trace] = {}
    for trace in traces:
        by_hex.setdefault(trace.hex_id, trace)
    children: dict[str, list[tuple[Trace, int | None]]] = {}
    roots: list[Trace] = []
    for trace in traces:
        parent_trace = None
        parent_span: int | None = None
        ctx = trace.root.attrs.get("parent_ctx")
        if ctx:
            try:
                hex_id, span_id = parse_traceparent(ctx)
            except ValueError:
                pass
            else:
                candidate = by_hex.get(hex_id)
                if candidate is not None and candidate is not trace:
                    parent_trace, parent_span = candidate, span_id
        if parent_trace is None:
            roots.append(trace)
        else:
            children.setdefault(parent_trace.hex_id, []).append(
                (trace, parent_span)
            )

    def assemble(trace: Trace, seen: frozenset[str]) -> Trace:
        merged = trace.copy()
        by_id = {span.span_id: span for span in merged.spans}
        for child, span_id in children.get(trace.hex_id, ()):
            if child.hex_id in seen:
                continue  # pragma: no cover - cycle guard
            sub = assemble(child, seen | {child.hex_id})
            anchor = by_id.get(span_id, merged.root)
            merged.graft(sub.to_dicts(), parent=anchor)
        return merged

    return [assemble(root, frozenset({root.hex_id})) for root in roots]


def read_trace_jsonl(path) -> list[Trace]:
    """Rebuild traces from a JSONL export (the round-trip inverse of
    :meth:`Tracer.export_jsonl`).  Accepts both current (``schema`` 2)
    and PR 4 v1 records, which lack ``schema``/``ctx``/``shard``."""
    grouped: dict[object, list[dict]] = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            key = record.get("ctx") or record["trace"]
            grouped.setdefault(key, []).append(record)
    traces: list[Trace] = []
    for records in grouped.values():
        records.sort(key=lambda r: r["span"])
        trace = Trace.__new__(Trace)
        trace.trace_id = records[0]["trace"]
        trace.label = records[0]["name"]
        trace.spans = [Span.from_dict(record) for record in records]
        trace.status = trace.spans[0].attrs.get("status", "ok")
        trace.hex_id = (
            records[0].get("ctx") or f"{trace.trace_id & (1 << 128) - 1:032x}"
        )
        trace.sampled = True
        trace._stack = []
        trace._origin = 0.0
        traces.append(trace)
    return traces
