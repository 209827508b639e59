"""The data warehouse of Figure 1: summarized data over minimal detail.

A :class:`Warehouse` hosts one or more materialized GPSJ views, derives
and materializes their auxiliary views at load time, then maintains
everything purely from the transaction stream.  It also keeps the
storage ledger that the paper's Section 1.1 analysis is about.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends.base import Backend, make_backend
from repro.catalog.database import Database
from repro.core.derivation import AuxiliaryViewSet
from repro.core.maintenance import SelfMaintainer
from repro.core.view import ViewDefinition
from repro.engine import compilecache
from repro.engine.deltas import Transaction
from repro.engine.relation import Relation
from repro.engine.undolog import UndoLog, rollback_all
from repro.obs.log import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.perf import PerfStats
from repro.plan.cost import SharedPlanCache


@dataclass(frozen=True)
class StorageReport:
    """Bytes held by the warehouse for one view, per the paper's model.

    ``perf`` carries the maintainer's cumulative hot-path statistics
    (see :mod:`repro.perf`) so storage and maintenance cost read off one
    report; ``None`` when no transaction has been applied yet.
    """

    view: str
    summary_bytes: int
    detail_bytes: int
    per_auxiliary: dict[str, int]
    eliminated: tuple[str, ...]
    perf: dict | None = None

    @property
    def total_bytes(self) -> int:
        return self.summary_bytes + self.detail_bytes


def _unique_keys(records) -> tuple:
    """Deduplicate redo records, preserving first-touch order."""
    seen: set = set()
    out: list = []
    for record in records:
        if record not in seen:
            seen.add(record)
            out.append(record)
    return tuple(out)


class Warehouse:
    """Materializes views + minimal current detail; maintained from deltas."""

    def __init__(
        self,
        database: Database,
        views: list[ViewDefinition] | None = None,
        tracer: Tracer | None = None,
        backend: Backend | str | None = None,
        events: EventLog | None = None,
    ):
        """``database`` is only read during :meth:`register` (initial load).
        ``tracer`` is handed to every maintainer registered here, so one
        sampler sees the warehouse's whole transaction stream (each
        maintained view contributes its own trace per sampled call).
        ``backend`` selects where the detail data lives and how plans
        execute — a :class:`~repro.backends.Backend` instance, a name
        (``"memory"`` or ``"columnar"``), or ``None``
        to consult ``REPRO_BACKEND`` (default memory); one backend
        instance is shared by every view registered here, so a
        warehouse transaction is one backend transaction.
        ``events`` is the structured :class:`~repro.obs.log.EventLog`
        every maintainer narrates into — one log per warehouse,
        trace-correlated; a default bounded log is created when none is
        supplied."""
        self._database = database
        self.tracer = tracer
        self.events = events if events is not None else EventLog()
        self._backend = make_backend(backend)
        self._maintainers: dict[str, SelfMaintainer] = {}
        self._shared_selection: frozenset | None = None
        self._last_shared_cache: SharedPlanCache | None = None
        for view in views or []:
            self.register(view)

    # ------------------------------------------------------------------
    # Registration (the only phase that reads base data).
    # ------------------------------------------------------------------

    def register(self, view: ViewDefinition) -> AuxiliaryViewSet:
        """Derive auxiliary views for ``view`` and materialize everything."""
        if view.name in self._maintainers:
            raise ValueError(f"view {view.name!r} already registered")
        maintainer = SelfMaintainer(
            view,
            self._database,
            tracer=self.tracer,
            backend=self._backend,
            events=self.events,
        )
        self._maintainers[view.name] = maintainer
        self._shared_selection = None
        return maintainer.aux_set

    def adopt(self, maintainer: SelfMaintainer) -> None:
        """Attach an already-initialized maintainer (checkpoint restore)."""
        name = maintainer.view.name
        if name in self._maintainers:
            raise ValueError(f"view {name!r} already registered")
        if maintainer.events is None:
            maintainer.events = self.events
        self._maintainers[name] = maintainer
        self._shared_selection = None

    # ------------------------------------------------------------------
    # Maintenance.
    # ------------------------------------------------------------------

    def apply(self, transaction: Transaction) -> dict[str, tuple]:
        """Propagate one source transaction into every registered view,
        atomically across views.

        Maintainers run in registration order; if any of them rejects
        the transaction — or the backend's :meth:`commit` fails after
        every maintainer succeeded — the views already updated in this
        call are rolled back (in reverse order) before the exception
        propagates, so the warehouse never exposes a state where the
        in-memory summary tables reflect a source transaction the
        backend never committed.  The failing maintainer rolls its own
        partial work back itself.  If an individual rollback step
        itself raises, the remaining logs are still rolled back and a
        :class:`~repro.engine.undolog.RollbackError` aggregating the
        failures propagates (chained to the original cause).

        One shared plan-result cache spans all maintainers of the call:
        structurally identical delta subplans (two views reading the
        same coalesced, locally-reduced delta of a table) execute once
        and the other maintainers reuse the result.  The cache is a
        :class:`~repro.plan.cost.SharedPlanCache` restricted to the
        *selected* shared subplans (explicit multi-query optimization).

        Returns ``{view name: (changed group keys...)}`` — the forward
        redo records the transaction's undo logs collected, i.e. exactly
        the summary groups whose rows changed.  The serving layer's
        snapshot store turns this into copy-on-write version patches;
        other callers may ignore the return value.
        """
        applied: list[tuple[SelfMaintainer, UndoLog]] = []
        shared = SharedPlanCache(self.shared_subplan_selection())
        self._last_shared_cache = shared
        try:
            for maintainer in self._maintainers.values():
                log = UndoLog()
                maintainer.apply(transaction, undo=log, shared=shared)
                applied.append((maintainer, log))
            self._backend.commit()
        except Exception:
            rollback_all(
                reversed(applied), perf_for=lambda m: m.perf
            )
            raise
        changed: dict[str, tuple] = {}
        for maintainer, log in applied:
            log.commit()
            changed[maintainer.view.name] = _unique_keys(log.redo_records)
        return changed

    def shared_subplan_selection(self) -> frozenset:
        """The share keys (canonical logical subtrees) explicitly
        selected for cross-view sharing, computed once per registration
        set and cached.

        A subtree qualifies when it appears in the delta plans of at
        least two registered views: each such result is computed once
        per transaction instead of once per view.  This is the planned,
        structural selection of multi-query optimization (Mistry et al.,
        cs/0003006) replacing the old cache-everything heuristic; the
        per-transaction :class:`~repro.plan.cost.SharedPlanCache` admits
        exactly these keys.
        """
        if self._shared_selection is not None:
            return self._shared_selection
        owners: dict[object, set[str]] = {}
        for name, maintainer in self._maintainers.items():
            signs = (1,) if maintainer.append_only else (1, -1)
            for table in maintainer.view.tables:
                for sign in signs:
                    for node in maintainer.delta_plans(table, sign).walk():
                        key = node.share_key
                        if key is None:
                            continue
                        owners.setdefault(key, set()).add(name)
        selected = frozenset(
            key for key, names in owners.items() if len(names) >= 2
        )
        self._shared_selection = selected
        return selected

    @property
    def last_shared_cache(self) -> SharedPlanCache | None:
        """The :meth:`apply` call's most recent shared-subplan cache
        (admitted/rejected counters for benchmarks); ``None`` before the
        first apply."""
        return self._last_shared_cache

    # ------------------------------------------------------------------
    # Reads.
    # ------------------------------------------------------------------

    @property
    def view_names(self) -> tuple[str, ...]:
        return tuple(self._maintainers)

    @property
    def database(self) -> Database:
        """The source database (read at registration and for planning;
        maintenance itself never touches it)."""
        return self._database

    @property
    def backend(self) -> Backend:
        """The execution backend shared by every registered view."""
        return self._backend

    def close(self) -> None:
        """Release the backend's resources."""
        self._backend.close()

    def __enter__(self) -> "Warehouse":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def maintainer(self, view_name: str) -> SelfMaintainer:
        return self._maintainers[view_name]

    def summary(self, view_name: str) -> Relation:
        """The materialized summary table for ``view_name``."""
        return self._maintainers[view_name].current_view()

    def detail(self, view_name: str, table: str) -> Relation:
        """One current-detail (auxiliary) table."""
        return self._maintainers[view_name].aux_relation(table)

    def storage_report(self, view_name: str) -> StorageReport:
        maintainer = self._maintainers[view_name]
        per_aux = {
            aux.table: maintainer.aux_relation(aux.table).size_bytes()
            for aux in maintainer.aux_set
        }
        snapshot = maintainer.perf.snapshot()
        return StorageReport(
            view=view_name,
            summary_bytes=maintainer.current_view().size_bytes(),
            detail_bytes=sum(per_aux.values()),
            per_auxiliary=per_aux,
            eliminated=tuple(maintainer.aux_set.eliminated),
            perf=snapshot if snapshot["counters"] else None,
        )

    def perf_report(self, view_name: str | None = None) -> str:
        """Hot-path counters and timings (including per-plan-node
        ``plan:*`` timings), rendered.

        With a view name, one maintainer's statistics; with none, the
        merged statistics of every registered maintainer — the whole
        warehouse's maintenance cost in one table.
        """
        if view_name is not None:
            return self._maintainers[view_name].perf.render()
        merged = PerfStats()
        for maintainer in self._maintainers.values():
            merged.merge(maintainer.perf)
        return merged.render()

    def runtime_stats(self, view_name: str | None = None) -> dict:
        """Observed per-plan-node statistics (cardinalities, timings,
        reuse counts) accumulated over every applied transaction.

        With a view name, that maintainer's ``{delta shape: [node
        records]}`` mapping; with none, one mapping per registered view.
        This is the ``explain --analyze`` payload.
        """
        if view_name is not None:
            return self._maintainers[view_name].runtime_stats()
        return {
            name: maintainer.runtime_stats()
            for name, maintainer in self._maintainers.items()
        }

    def metrics_registry(self) -> MetricsRegistry:
        """A merged :class:`~repro.obs.metrics.MetricsRegistry` over all
        maintainers — counters, phase seconds, and per-transaction
        histograms — plus gauges for the process-wide compile/shared
        cache (``repro_compile_cache_*``).  The merge is a snapshot: it
        copies, so exporting never perturbs the live hot-path stores."""
        merged = MetricsRegistry()
        for maintainer in self._maintainers.values():
            merged.merge(maintainer.perf.registry)
        for name, value in compilecache.cache_stats().items():
            merged.gauge(f"repro_compile_cache_{name}").set(value)
        return merged

    def metrics_text(self) -> str:
        """The merged registry in Prometheus text exposition format."""
        return self.metrics_registry().render_prometheus()

    def explain_plans(self) -> str:
        """Render every maintainer's chosen physical plans (evaluation
        and per-delta maintenance), with subplans shared across views
        marked.  See :mod:`repro.plan.explain`."""
        from repro.plan.explain import warehouse_plan_report

        return warehouse_plan_report(self)
