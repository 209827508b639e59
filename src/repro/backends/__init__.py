"""Pluggable execution backends behind the plan layer.

The same :class:`~repro.plan.maintenance.DeltaPlans` run against two
stores.  :class:`~repro.backends.base.MemoryBackend` wraps the existing
in-memory interpreter.  :class:`~repro.backends.columnar.ColumnarBackend`
stores each auxiliary view as typed columns with value->rid hash
indexes and compiles delta plans to fused batch kernels
(:mod:`repro.backends.kernels`).

Select a backend with ``Warehouse(..., backend="columnar")``, the CLI's
``--backend`` flag, or the ``REPRO_BACKEND`` environment variable (used
by CI to run the whole suite against columnar).
"""

from repro.backends.base import (
    BACKEND_NAMES,
    Backend,
    BackendError,
    MemoryBackend,
    make_backend,
    resolve_backend_name,
)

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "BackendError",
    "MemoryBackend",
    "make_backend",
    "resolve_backend_name",
]
