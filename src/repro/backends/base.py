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

#: Backends selectable by name.
BACKEND_NAMES = ("memory", "columnar")

#: Environment variable consulted when no backend is given explicitly.
BACKEND_ENV = "REPRO_BACKEND"


class BackendError(Exception):
    """Raised for unknown backend names or backend-level failures."""


class Backend:
    """Interface every execution backend implements."""

    name = "abstract"

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


def resolve_backend_name(spec: str | None = None) -> str:
    """The backend name ``spec`` selects, honoring ``REPRO_BACKEND``
    when ``spec`` is None (default memory).  Anything but one of
    :data:`BACKEND_NAMES` raises :class:`BackendError` listing them."""
    if spec is None:
        spec = os.environ.get(BACKEND_ENV) or "memory"
    if spec not in BACKEND_NAMES:
        raise BackendError(
            f"unknown backend {spec!r}: valid names are "
            f"{', '.join(BACKEND_NAMES)}"
        )
    return spec


def make_backend(spec=None) -> Backend:
    """Build a backend from a spec: an instance (returned as-is),
    ``"memory"``, ``"columnar"``, or ``None`` (defer to the
    ``REPRO_BACKEND`` environment variable, default memory)."""
    if isinstance(spec, Backend):
        return spec
    if resolve_backend_name(spec) == "columnar":
        from repro.backends.columnar import ColumnarBackend

        return ColumnarBackend()
    return MemoryBackend()
