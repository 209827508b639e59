"""Pluggable execution backends behind the plan layer.

The same :class:`~repro.plan.planner.ViewPlan` /
:class:`~repro.plan.maintenance.DeltaPlans` run against more than one
store.  :class:`~repro.backends.base.MemoryBackend` wraps the existing
in-memory interpreter.  :class:`~repro.backends.columnar.ColumnarBackend`
stores each auxiliary view as typed columns with value->rid hash
indexes and compiles delta plans to fused batch kernels
(:mod:`repro.backends.kernels`).
:class:`~repro.backends.sharded.ShardedBackend` composes N per-shard
in-memory stores behind the same interface, partitioning the root
auxiliary view by its group key (``"sharded:<N>"`` runs the N shards
in-process, one after another).

:mod:`repro.backends.sqlgen` compiles plans to SQL in the repo's own
dialect; the test suite runs that SQL on stdlib :mod:`sqlite3` to check
that the paper's reductions are relational algebra, not Python.

Select a backend with ``Warehouse(..., backend="columnar")``, the CLI's
``--backend`` flag, or the ``REPRO_BACKEND`` environment variable (used
by CI to run the whole suite against columnar and against sharding).
"""

from repro.backends.base import (
    BACKEND_NAMES,
    BACKEND_SPECS,
    Backend,
    BackendError,
    MemoryBackend,
    make_backend,
    resolve_backend_name,
)

__all__ = [
    "BACKEND_NAMES",
    "BACKEND_SPECS",
    "Backend",
    "BackendError",
    "MemoryBackend",
    "make_backend",
    "resolve_backend_name",
]
