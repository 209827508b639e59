"""Render the chosen physical plans, with optimizer annotations.

Three layers of annotation end up in one report:

* per-node rewrite marks attached by the planners themselves (pushed
  selections, pruned projections, index-backed reductions and
  restrictions);
* the evaluation plan for each registered view (canonical plan after
  pushdown/pruning, hash-join lowering);
* cross-view sharing marks: subplans whose structural ``share_key``
  appears in the maintenance plans of two or more registered views are
  flagged, because one warehouse transaction computes them once.

This module sits *above* the rest of :mod:`repro.plan` — it reads
warehouses and maintainers — so it is imported lazily (by
``Warehouse.explain_plans`` and the CLI), never from the plan package
itself.
"""

from __future__ import annotations

from textwrap import indent

from repro.plan.logical import LogicalNode
from repro.plan.planner import view_plan


def collect_share_keys(maintainer) -> set[LogicalNode]:
    """Structural keys of every shareable subplan in one maintainer's
    delta plans (both signs; building them is cheap and cached)."""
    keys: set[LogicalNode] = set()
    for table in maintainer.view.tables:
        for sign in (+1, -1):
            plans = maintainer.delta_plans(table, sign)
            roots = [plans.reduce]
            if plans.propagate is not None:
                roots.append(plans.propagate)
            for root in roots:
                for node in root.walk():
                    if node.share_key is not None:
                        keys.add(node.share_key)
    return keys


def shared_key_owners(warehouse) -> dict[LogicalNode, list[str]]:
    """``share_key -> registered views whose plans contain it``."""
    owners: dict[LogicalNode, list[str]] = {}
    for name in warehouse.view_names:
        for key in collect_share_keys(warehouse.maintainer(name)):
            owners.setdefault(key, []).append(name)
    return owners


def make_shared_annotator(
    owners: dict[LogicalNode, list[str]],
    selected: frozenset,
):
    """An annotator for :meth:`PhysicalNode.render` that marks subplans
    two or more views could compute through the shared per-transaction
    cache, distinguishing subtrees the warehouse *selected* to
    materialize once (``selected``, its explicit shared-subplan
    selection) from shareable candidates it left out — plans of a sign
    an append-only view never runs — whose results are recomputed per
    view."""

    def annotator(node) -> str | None:
        if node.share_key is None:
            return None
        views = owners.get(node.share_key)
        if not views or len(views) < 2:
            return None
        names = ", ".join(views)
        if node.share_key in selected:
            return f"shared across views: {names} [cost-selected]"
        return f"shareable across views: {names} [not selected]"

    return annotator


def stats_annotator(node) -> str | None:
    """Annotate a node with its observed runtime statistics (the
    ``explain --analyze`` rendering); silent for never-executed nodes."""
    return node.stats.describe()


def combine_annotators(*annotators):
    """One annotator joining the non-empty notes of several."""

    def annotator(node) -> str | None:
        notes = [a(node) for a in annotators]
        notes = [note for note in notes if note]
        return "; ".join(notes) if notes else None

    return annotator


def maintainer_plan_report(maintainer, database, annotator=None) -> str:
    """One view's plans: evaluation plus one maintenance plan per table.

    Insertion plans are shown; deletion plans are mirror images (the
    delta scan's sign flips, the pipeline is identical).
    """
    lines = [f"view {maintainer.view.name}"]
    physical = maintainer.backend.describe(maintainer.view.name)
    if physical is not None:
        lines.append(f"  {physical}")
    lines.append("  evaluation plan:")
    plan = view_plan(maintainer.view, database)
    lines.append(indent(plan.physical.render(annotator), "    "))
    lines.append("  maintenance plans (per inserted-delta table):")
    for table in maintainer.view.tables:
        plans = maintainer.delta_plans(table, +1)
        root = plans.propagate if plans.propagate is not None else plans.reduce
        lines.append(f"    Δ+{table}:")
        lines.append(indent(root.render(annotator), "      "))
    return "\n".join(lines)


def warehouse_plan_report(warehouse) -> str:
    """Every registered view's plans, with cross-view shared subplans
    marked (the report behind ``Warehouse.explain_plans``).  The marks
    reflect the warehouse's explicit shared-subplan selection."""
    annotator = make_shared_annotator(
        shared_key_owners(warehouse), warehouse.shared_subplan_selection()
    )
    sections = [
        maintainer_plan_report(
            warehouse.maintainer(name), warehouse.database, annotator
        )
        for name in warehouse.view_names
    ]
    return "\n\n".join(sections)


def explain_view_plans(view, database, backend=None) -> str:
    """Plans for one standalone view (``python -m repro explain --plan``).

    Builds an uninitialized maintainer — no base data is loaded or
    read, so the plans are costed against empty statistics.
    ``backend`` (a spec string or instance) adds that backend's
    physical line, e.g. the columnar backend's store layout.
    """
    from repro.core.maintenance import SelfMaintainer  # upward, lazy

    maintainer = SelfMaintainer(
        view, database, initialize=False, backend=backend
    )
    return maintainer_plan_report(maintainer, database)
