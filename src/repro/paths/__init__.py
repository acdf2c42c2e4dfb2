"""Declarative hop-plan IR and the analytic costing kernel.

Each strategy model compiles ``(pattern summary, machine, layout)``
into a :class:`HopPlan` — an ordered sequence of typed hop stages —
which serves three consumers: the scalar reference coster, the fused
array coster over a sweep, and a structural cross-check against the
messages a DES program actually put on the wire.  See ``docs/api.md``
("Path IR & costing kernel").
"""

from repro.paths.ir import (
    CheckMode,
    Hop,
    HopKind,
    HopPlan,
    HopStage,
    Serialization,
    StageKind,
)
from repro.paths.kernel import (
    FusedPlans,
    cost_plan,
    evaluate_plans_fused,
    evaluate_stages,
    hop_cost,
    stack_plans,
    stage_cost,
)
from repro.paths.compile import (
    ARRAY_OPS,
    SCALAR_OPS,
    Ops,
    as_setup,
    copy_stage,
    device_off_node_stage,
    hierarchical_on_node_stage,
    off_node_stage,
    on_node_stage,
    split_on_node_stage,
)
from repro.paths.check import (
    PhaseProfile,
    assert_plan_matches_trace,
    check_plan_against_trace,
    profile_trace,
)

__all__ = [
    "CheckMode",
    "Hop",
    "HopKind",
    "HopPlan",
    "HopStage",
    "Serialization",
    "StageKind",
    "Ops",
    "SCALAR_OPS",
    "ARRAY_OPS",
    "hop_cost",
    "stage_cost",
    "evaluate_stages",
    "cost_plan",
    "FusedPlans",
    "stack_plans",
    "evaluate_plans_fused",
    "on_node_stage",
    "hierarchical_on_node_stage",
    "split_on_node_stage",
    "off_node_stage",
    "device_off_node_stage",
    "copy_stage",
    "as_setup",
    "PhaseProfile",
    "profile_trace",
    "check_plan_against_trace",
    "assert_plan_matches_trace",
]
