"""The query-plan layer: logical IR, physical planner, shared executor.

All evaluation in the repository flows through this package: view
recomputation (:func:`~repro.plan.planner.evaluate_view`), auxiliary
reconstruction (:class:`~repro.core.rewrite.Reconstructor` builds its
join plans here), and incremental maintenance
(:class:`~repro.plan.maintenance.MaintenancePlanner` compiles one
delta plan per (table, sign), once).

``repro.plan.explain`` renders chosen plans with their annotations
(pushed selections, pruned projections, index-backed reductions,
cross-view shared subplans); it is imported lazily by the CLI and the
warehouse to keep this package free of upward dependencies.
"""

from repro.plan.executor import ExecutionContext, PlanExecutionError
from repro.plan.logical import (
    AntiJoin,
    DeltaScan,
    EquiJoin,
    GeneralizedProject,
    LogicalNode,
    PlanError,
    Project,
    Scan,
    Select,
    SemiJoin,
    scan_sources,
)
from repro.plan.physical import (
    AccumulateNode,
    AuxScanNode,
    DeltaScanNode,
    FilterNode,
    GeneralizedProjectNode,
    HashAntiJoinNode,
    HashJoinNode,
    HashSemiJoinNode,
    KeyProbeSemiJoinNode,
    NeighborRestrictNode,
    PhysicalNode,
    ProjectNode,
    ScanNode,
)
from repro.plan.planner import (
    JoinGraphDisconnected,
    ViewPlan,
    canonical_view_plan,
    evaluate_view,
    execute_view_plan,
    join_order,
    join_pairs,
    join_physical,
    lower,
    prune_projections,
    push_selections,
    view_plan,
)

__all__ = [
    "AccumulateNode",
    "AntiJoin",
    "AuxScanNode",
    "DeltaScan",
    "DeltaScanNode",
    "EquiJoin",
    "ExecutionContext",
    "FilterNode",
    "GeneralizedProject",
    "GeneralizedProjectNode",
    "HashAntiJoinNode",
    "HashJoinNode",
    "HashSemiJoinNode",
    "JoinGraphDisconnected",
    "KeyProbeSemiJoinNode",
    "LogicalNode",
    "NeighborRestrictNode",
    "PhysicalNode",
    "PlanError",
    "PlanExecutionError",
    "Project",
    "ProjectNode",
    "Scan",
    "ScanNode",
    "Select",
    "SemiJoin",
    "ViewPlan",
    "canonical_view_plan",
    "evaluate_view",
    "execute_view_plan",
    "join_order",
    "join_pairs",
    "join_physical",
    "lower",
    "prune_projections",
    "push_selections",
    "scan_sources",
    "view_plan",
]
