"""The execution-backend interface and the in-memory reference backend.

A :class:`Backend` owns the *physical* side of a warehouse: where
auxiliary views live, how a compiled plan runs, and how a transaction's
mutations are made atomic.  Everything above it — derivation, planning,
group reconstruction, observability — is backend-independent, which is
exactly the separation the plan layer was built for.

:class:`MemoryBackend` delegates to the existing Python interpreter
(:meth:`~repro.plan.physical.PhysicalNode.run` and the
materializations of :mod:`repro.core.maintenance`); atomicity stays
with the :class:`~repro.engine.undolog.UndoLog`.  The columnar backend
(:mod:`repro.backends.columnar`) replaces the interpreter with column
stores and fused batch kernels, recording first-touch snapshots into
the same log.
"""

from __future__ import annotations

import os

from repro.plan.executor import ExecutionContext

#: Backends selectable by name (``sharded`` also accepts ``sharded:<N>``
#: and ``sharded:<N>:parallel``).
BACKEND_NAMES = ("memory", "sharded", "columnar")

#: The parameterized spec forms each backend accepts, for error messages
#: and ``--help`` text.
BACKEND_SPECS = (
    "memory",
    "sharded:<N>[:parallel]",
    "columnar",
)

#: Environment variable consulted when no backend is given explicitly.
BACKEND_ENV = "REPRO_BACKEND"


class BackendError(Exception):
    """Raised for unknown backend names or backend-level failures."""


class Backend:
    """Interface every execution backend implements."""

    name = "abstract"

    #: Structured event log the owning warehouse binds (None until
    #: :meth:`bind_observability`); backends narrate operational
    #: incidents (worker death, recovery) into it when present.
    events = None

    def bind_observability(self, events=None) -> None:
        """Attach observability sinks owned by the warehouse.  Called
        once at warehouse construction; ``events`` is an
        :class:`~repro.obs.log.EventLog` (or None to leave the backend
        silent).  The default just stores it; backends with their own
        processes or connections may override to propagate further."""
        if events is not None:
            self.events = events

    def prepare_view(
        self,
        view,
        database,
        graph,
        aux_set,
        namespace: str = "",
        append_only: bool = False,
    ) -> None:
        """Called once per maintained view, *before* any
        :meth:`make_materialization` for it: backends that need
        view-level physical decisions (e.g. the sharded backend's
        routing, derived from the join graph) hook in here.  The default
        is a no-op."""

    def make_materialization(self, aux, namespace="", **_ignored):
        """A live materialization of auxiliary view ``aux`` on this
        backend (the object :class:`~repro.core.maintenance.SelfMaintainer`
        loads, probes, and applies deltas to).  ``namespace`` scopes the
        backing storage per maintained view.  Other keyword options are
        accepted and ignored: every materialization probes maintained
        indexes, and callers still passing the retired index switch
        (the benchmark's layer pass) keep working."""
        raise NotImplementedError

    def run_plan(self, node, ctx: ExecutionContext):
        """Execute one physical stage root against ``ctx``'s bindings."""
        raise NotImplementedError

    def execute_view_plan(self, plan, database):
        """Evaluate a :class:`~repro.plan.planner.ViewPlan` from base
        tables (recomputation, not maintenance)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Transaction boundaries.
    # ------------------------------------------------------------------

    def begin_transaction(self, log) -> None:
        """Open the backend's atomic scope for one warehouse transaction
        and register its rollback with ``log`` (an
        :class:`~repro.engine.undolog.UndoLog`)."""

    def commit(self) -> None:
        """Durably commit every scope opened since the last commit."""

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def describe(self, namespace: str = "") -> str | None:
        """One-line physical description of how this backend executes
        ``namespace`` (shown by ``explain``), or ``None`` when there is
        nothing physical to report beyond the plans themselves."""
        return None

    def metrics_registry(self):
        """A snapshot :class:`~repro.obs.metrics.MetricsRegistry` of
        backend-level metrics (e.g. shard routing skew), or ``None``
        when the backend keeps none.  Merged into
        :meth:`Warehouse.metrics_registry`."""
        return None

    def merge_runtime_stats(self, namespace: str, stats: dict) -> dict:
        """Fold backend-side plan observations into a maintainer's
        ``runtime_stats()`` payload for ``namespace``.  Backends that
        execute plans in this process (memory, columnar) already
        accumulated everything on the caller's plan nodes and return
        ``stats`` unchanged; a distributed backend (the sharded pool's
        parallel mode) merges the per-worker ActualStats here so
        ``explain --analyze`` reports the whole fleet, not shard 0."""
        return stats

    def close(self) -> None:
        """Release backend resources."""


class MemoryBackend(Backend):
    """The existing Python interpreter, unchanged, behind the interface."""

    name = "memory"

    def make_materialization(self, aux, namespace="", **_ignored):
        from repro.core.maintenance import make_materialization

        return make_materialization(aux)

    def run_plan(self, node, ctx: ExecutionContext):
        return node.run(ctx)

    def execute_view_plan(self, plan, database):
        return plan.physical.run(ExecutionContext(resolver=database.relation))


def resolve_backend_name(spec: str | None = None) -> str:
    """The backend name ``spec`` selects, honoring ``REPRO_BACKEND``."""
    if spec is None:
        spec = os.environ.get(BACKEND_ENV) or "memory"
    name = spec.split(":", 1)[0]
    if name not in BACKEND_NAMES:
        raise BackendError(
            f"unknown backend {spec!r}: valid names are "
            f"{', '.join(BACKEND_NAMES)} (specs: {', '.join(BACKEND_SPECS)})"
        )
    return name


def _parse_sharded_spec(rest: str, spec: str) -> tuple[int, bool]:
    """``(n_shards, parallel)`` from the part after ``sharded:``."""
    if not rest:
        return 2, False
    count, _, mode = rest.partition(":")
    try:
        n_shards = int(count)
    except ValueError:
        raise BackendError(
            f"bad sharded spec {spec!r}: shard count {count!r} is not an "
            "integer (expected 'sharded:<N>' or 'sharded:<N>:parallel')"
        ) from None
    if n_shards < 1:
        raise BackendError(f"bad sharded spec {spec!r}: need at least 1 shard")
    if mode not in ("", "serial", "parallel"):
        raise BackendError(
            f"bad sharded spec {spec!r}: mode {mode!r} is not 'serial' or "
            "'parallel'"
        )
    return n_shards, mode == "parallel"


def make_backend(spec=None) -> Backend:
    """Build a backend from a spec: an instance (returned as-is),
    ``"memory"``, ``"sharded:<N>"``, ``"sharded:<N>:parallel"``,
    ``"columnar"``, or ``None`` (defer to the ``REPRO_BACKEND``
    environment variable, default memory)."""
    if isinstance(spec, Backend):
        return spec
    if spec is None:
        spec = os.environ.get(BACKEND_ENV) or "memory"
    name, _, rest = spec.partition(":")
    if name == "memory":
        return MemoryBackend()
    if name == "sharded":
        from repro.backends.sharded import ShardedBackend

        n_shards, parallel = _parse_sharded_spec(rest, spec)
        return ShardedBackend(n_shards, parallel=parallel)
    if name == "columnar":
        from repro.backends.columnar import ColumnarBackend

        return ColumnarBackend()
    raise BackendError(
        f"unknown backend {spec!r}: valid names are "
        f"{', '.join(BACKEND_NAMES)} (specs: {', '.join(BACKEND_SPECS)})"
    )
