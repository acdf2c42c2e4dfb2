"""Hop-plan IR construction and validation."""

import pytest

from repro.machine import resolve_machine
from repro.machine.locality import Locality
from repro.paths import (
    CheckMode,
    Hop,
    HopKind,
    HopPlan,
    HopStage,
    Serialization,
    cost_plan,
    evaluate_stages,
    off_node_stage,
    on_node_stage,
)


def _hop(**kw):
    base = dict(kind=HopKind.CPU_SEND, count=1, nbytes=64.0,
                locality=Locality.OFF_NODE)
    base.update(kw)
    return Hop(**base)


class TestHop:
    def test_memcpy_requires_direction(self):
        with pytest.raises(ValueError, match="direction"):
            Hop(kind=HopKind.MEMCPY, count=1, nbytes=64.0)

    def test_send_requires_locality(self):
        with pytest.raises(ValueError, match="locality"):
            Hop(kind=HopKind.CPU_SEND, count=1, nbytes=64.0)

    def test_transport_kind_mapping(self):
        from repro.machine.locality import TransportKind

        assert _hop().kind.transport_kind is TransportKind.CPU
        assert HopKind.GPU_SEND.transport_kind is TransportKind.GPU
        assert HopKind.MEMCPY.transport_kind is None


class TestHopStage:
    def test_rejects_empty_stage(self):
        with pytest.raises(ValueError, match="hops"):
            HopStage(label="empty", hops=())

    def test_rejects_conditional_leading_hop(self):
        with pytest.raises(ValueError, match="conditional"):
            HopStage(label="bad", hops=(_hop(enabled=False),))

    def test_defaults(self):
        stage = HopStage(label="s", hops=(_hop(),))
        assert stage.repeat == 1.0
        assert stage.check is CheckMode.BOUND_RANK


class TestHopPlan:
    def test_stage_for_phase_and_phases(self):
        machine = resolve_machine("lassen")
        stages = (
            off_node_stage(4, 1024.0, 4096.0, 256.0, phase="inter-node",
                           label="off"),
            on_node_stage(machine, HopKind.CPU_SEND, 256.0,
                          phases=("gather", "redistribute"), repeat=2.0,
                          label="on"),
        )
        plan = HopPlan(strategy="t", data_path="staged", stages=stages,
                       uncosted_phases=("on-node direct",))
        assert plan.stage_for_phase("inter-node") is stages[0]
        assert plan.stage_for_phase("gather") is stages[1]
        assert plan.stage_for_phase("nope") is None
        assert set(plan.phases) == {"inter-node", "gather", "redistribute"}

    def test_cost_plan_is_sum_of_stage_costs(self):
        machine = resolve_machine("lassen")
        stages = (
            off_node_stage(4, 1024.0, 4096.0, 256.0, label="off"),
            on_node_stage(machine, HopKind.CPU_SEND, 256.0,
                          phases=("gather",), label="on"),
        )
        plan = HopPlan(strategy="t", data_path="staged", stages=stages)
        total = cost_plan(machine, plan)
        assert total == evaluate_stages(machine, stages)
        assert total > 0.0

    def test_serialization_modes_exist(self):
        assert Serialization.SEQUENTIAL is not Serialization.MAX_RATE
