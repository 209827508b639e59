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

#: Backends selectable by name (``sharded`` also accepts ``sharded:<N>``).
BACKEND_NAMES = ("memory", "sharded", "columnar")

#: The spec forms the backends accept, for error messages and ``--help``
#: text.
BACKEND_SPECS = ("memory", "sharded", "sharded:<N>", "columnar")

#: Environment variable consulted when no backend is given explicitly.
BACKEND_ENV = "REPRO_BACKEND"


class BackendError(Exception):
    """Raised for unknown backend names or backend-level failures."""


class Backend:
    """Interface every execution backend implements."""

    name = "abstract"

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


def _parse_spec(spec: str | None = None) -> tuple[str, int | None]:
    """``(name, n_shards)`` for a backend spec, honoring
    ``REPRO_BACKEND`` when ``spec`` is None (default memory).

    The only accepted forms are ``memory``, ``columnar``, ``sharded``
    and ``sharded:<N>`` with N >= 1 (``n_shards`` is None for the
    unsharded backends); anything else raises :class:`BackendError`
    listing the valid specs."""
    if spec is None:
        spec = os.environ.get(BACKEND_ENV) or "memory"
    name, colon, count = spec.partition(":")
    if name in ("memory", "columnar") and not colon:
        return name, None
    if name == "sharded":
        if not colon:
            return name, 2
        if count.isascii() and count.isdigit() and int(count) >= 1:
            return name, int(count)
    raise BackendError(
        f"unknown backend {spec!r}: valid names are "
        f"{', '.join(BACKEND_NAMES)} (specs: {', '.join(BACKEND_SPECS)}, "
        "with N >= 1)"
    )


def resolve_backend_name(spec: str | None = None) -> str:
    """The backend name ``spec`` selects, honoring ``REPRO_BACKEND``."""
    return _parse_spec(spec)[0]


def make_backend(spec=None) -> Backend:
    """Build a backend from a spec: an instance (returned as-is),
    ``"memory"``, ``"sharded"``, ``"sharded:<N>"``, ``"columnar"``, or
    ``None`` (defer to the ``REPRO_BACKEND`` environment variable,
    default memory)."""
    if isinstance(spec, Backend):
        return spec
    name, n_shards = _parse_spec(spec)
    if name == "sharded":
        from repro.backends.sharded import ShardedBackend

        return ShardedBackend(n_shards)
    if name == "columnar":
        from repro.backends.columnar import ColumnarBackend

        return ColumnarBackend()
    return MemoryBackend()
