"""Fused multi-plan evaluation: one kernel call == per-element scalar cost.

:func:`repro.paths.evaluate_plans_fused` stacks every compiled plan's
stages into padded operand tensors and costs the whole strategy x
element grid in one numpy pass.  These tests pin the contract the sweep
layer relies on: element ``i`` of row ``s`` of the fused result is
*bit-identical* to the scalar reference :func:`repro.paths.cost_plan` on
the plan compiled from the batch's ``i``-th summary — across machines,
strategies, batch widths and duplicate-removal fractions.
"""

import dataclasses

import numpy as np
import pytest

from repro.machine import resolve_machine
from repro.machine.locality import Locality, TransportKind
from repro.machine.presets import PRESETS
from repro.models.scenarios import (
    PAPER_SCENARIOS,
    Scenario,
    fused_scenario_times,
    scenario_summary,
)
from repro.models.pattern_summary import PatternSummary
from repro.models.strategies import (
    MultiLeaderStagedModel,
    all_strategy_models,
    model_label,
)
from repro.paths import (
    Hop,
    HopKind,
    HopPlan,
    HopStage,
    cost_plan,
    evaluate_plans_fused,
    stack_plans,
)

MACHINES = ["lassen", "summit", "frontier_like"]
SIZES = np.logspace(0, 7, 12)


def _summaries(machine):
    return [scenario_summary(machine, sc, float(size))
            for sc in PAPER_SCENARIOS for size in SIZES]


def _batch(machine):
    return PatternSummary.stack(_summaries(machine))


@pytest.mark.parametrize("machine_name", MACHINES)
@pytest.mark.parametrize("dup_fraction", [0.0, 0.25])
def test_fused_rows_bit_identical_to_array_ops(machine_name, dup_fraction):
    """Plans compiled with the ARRAY_OPS algebra cost, element by
    element, exactly what the scalar reference charges each summary."""
    machine = resolve_machine(machine_name)
    summaries = _summaries(machine)
    batch = PatternSummary.stack(summaries)
    models = all_strategy_models(machine)
    plans = [m.compile_plan_batch(batch, dup_fraction=dup_fraction)
             for m in models]
    fused = evaluate_plans_fused(machine, plans, n=batch.width)
    assert fused.shape == (len(plans), batch.width)
    for s, model in enumerate(models):
        reference = [
            float.hex(cost_plan(machine, model.compile_plan(
                summary, dup_fraction=dup_fraction)))
            for summary in summaries]
        assert [float.hex(float(t)) for t in fused[s]] == reference, \
            (model_label(model), machine_name)


@pytest.mark.parametrize("machine_name", MACHINES)
def test_fused_scalar_plans_match_cost_plan(machine_name):
    """Width-1 case: plans compiled from scalar summaries, no arrays."""
    machine = resolve_machine(machine_name)
    summary = scenario_summary(machine, PAPER_SCENARIOS[0], 4096.0)
    models = all_strategy_models(machine)
    plans = [m.compile_plan(summary) for m in models]
    fused = evaluate_plans_fused(machine, plans)
    assert fused.shape == (len(plans), 1)
    for s, (model, plan) in enumerate(zip(models, plans)):
        assert float(fused[s, 0]) == cost_plan(machine, plan), \
            model_label(model)
        assert float(fused[s, 0]) == model.time(summary), model_label(model)


def test_stack_plans_requires_at_least_one_plan():
    machine = resolve_machine("lassen")
    with pytest.raises(ValueError, match="at least one plan"):
        stack_plans(machine, [])
    with pytest.raises(ValueError, match="at least one plan"):
        evaluate_plans_fused(machine, [])


def test_stacked_tensors_are_padded_uniformly():
    """Plans with different stage/hop counts share one padded shape."""
    machine = resolve_machine("lassen")
    batch = _batch(machine)
    models = all_strategy_models(machine)
    plans = [m.compile_plan_batch(batch) for m in models]
    fp = stack_plans(machine, plans, n=batch.width)
    assert fp.labels == tuple(p.strategy for p in plans)
    n_stages = max(len(p.stages) for p in plans)
    n_hops = max(len(st.hops) for p in plans for st in p.stages)
    expected = (len(plans), n_stages, n_hops, batch.width)
    for field in (fp.alpha, fp.beta, fp.count, fp.nbytes,
                  fp.total_bytes, fp.node_bytes, fp.enabled):
        assert field.shape == expected
    # padding slots are disabled, so they never contribute cost
    for s, plan in enumerate(plans):
        for st in range(len(plan.stages), n_stages):
            assert not fp.enabled[s, st].any()


@pytest.mark.parametrize("machine_name", MACHINES)
@pytest.mark.parametrize("dup_fraction", [0.0, 0.25])
def test_fused_scenario_times_bit_identical_to_scalar_models(
        machine_name, dup_fraction):
    """The sweep entry point equals the historical per-cell loop."""
    machine = resolve_machine(machine_name)
    scenarios = [Scenario(num_dest_nodes=sc.num_dest_nodes,
                          num_messages=sc.num_messages,
                          dup_fraction=dup_fraction)
                 for sc in PAPER_SCENARIOS[:2]]
    sizes = [float(s) for s in SIZES]
    labels, times = fused_scenario_times(machine, scenarios, sizes)
    models = all_strategy_models(machine)
    assert list(labels) == [model_label(m) for m in models]
    assert times.shape == (len(models), len(scenarios), len(sizes))
    for s, model in enumerate(models):
        for c, sc in enumerate(scenarios):
            for z, size in enumerate(sizes):
                summary = scenario_summary(machine, sc, size)
                expected = model.time(summary,
                                      dup_fraction=sc.dup_fraction)
                assert float(times[s, c, z]) == expected, \
                    (model_label(model), c, z)


def test_fused_slice_equivariance():
    """Fusing a subset of plans gives the same rows as fusing all."""
    machine = resolve_machine("lassen")
    batch = _batch(machine)
    plans = [m.compile_plan_batch(batch)
             for m in all_strategy_models(machine)]
    full = evaluate_plans_fused(machine, plans, n=batch.width)
    half = evaluate_plans_fused(machine, plans[:3], n=batch.width)
    assert np.array_equal(full[:3], half)


# -- the cached stacking layout ----------------------------------------------


def _hex_costs(machine, plans):
    return ([float.hex(float(t))
             for t in evaluate_plans_fused(machine, plans)[:, 0]],
            [float.hex(cost_plan(machine, p)) for p in plans])


def _replace_stage(plan, index, **changes):
    stages = list(plan.stages)
    stages[index] = dataclasses.replace(stages[index], **changes)
    return dataclasses.replace(plan, stages=tuple(stages))


def _replace_hop(plan, index, **changes):
    stage = plan.stages[index]
    hops = (dataclasses.replace(stage.hops[0], **changes),) + stage.hops[1:]
    return _replace_stage(plan, index, hops=hops)


def test_layout_cache_tells_apart_plans_sharing_labels():
    """Same strategy label, different hop structure: never one layout."""
    machine = resolve_machine("lassen")
    summary = scenario_summary(machine, PAPER_SCENARIOS[1], 4096.0)
    plan = MultiLeaderStagedModel(machine).compile_plan(summary)
    gather = plan.stages[1]
    variants = [
        plan,
        # an extra hop in the group gather
        _replace_stage(plan, 1, hops=gather.hops + gather.hops[:1]),
        # the same hop count over another locality
        _replace_hop(plan, 1, locality=Locality.ON_NODE),
        # a persistent off-node channel
        _replace_hop(plan, 0, pre_posted=True),
        # a repeated stage
        _replace_stage(plan, 1, repeat=2.0),
    ]
    reference = cost_plan(machine, plan)
    for variant in variants[1:]:
        assert variant.strategy == plan.strategy
        assert cost_plan(machine, variant) != reference
    for plans in ([v] for v in variants + variants):
        fused, expected = _hex_costs(machine, plans)
        assert fused == expected
    fused, expected = _hex_costs(machine, variants)
    assert fused == expected


def test_layout_cache_is_per_machine():
    """One plan list stacked on several machines costs each machine's
    constants, including a same-named copy with another NIC."""
    lassen = resolve_machine("lassen")
    slow_nic = dataclasses.replace(
        lassen, nic=dataclasses.replace(lassen.nic,
                                        rn_inv=4.0 * lassen.nic.rn_inv))
    summary = scenario_summary(lassen, PAPER_SCENARIOS[3], 65536.0)
    plans = [m.compile_plan(summary) for m in all_strategy_models(lassen)]
    rows = {}
    for name, machine in [("lassen", lassen),
                          ("frontier_like", resolve_machine("frontier_like")),
                          ("slow-nic", slow_nic), ("lassen", lassen)]:
        fused, expected = _hex_costs(machine, plans)
        assert fused == expected, name
        rows.setdefault(name, fused)
        assert rows[name] == fused
    assert rows["lassen"] != rows["frontier_like"]
    assert rows["lassen"] != rows["slow-nic"]


_SEND_KINDS = {kind.transport_kind: kind
               for kind in (HopKind.CPU_SEND, HopKind.GPU_SEND)}


def _probe_plan(kind, locality, pre_posted, sizes):
    hop = Hop(kind=_SEND_KINDS[kind], locality=locality, count=1.0,
              nbytes=sizes, pre_posted=pre_posted)
    return HopPlan(strategy="probe", data_path="probe",
                   stages=(HopStage(label="probe", hops=(hop,)),))


@pytest.mark.parametrize("machine_name", sorted(PRESETS))
def test_stacked_protocol_rows_match_link_arrays(machine_name):
    """The batched protocol lookup selects, for every (kind, locality,
    pre_posted) row, exactly what ``CommParams.link_arrays`` selects."""
    machine = resolve_machine(machine_name)
    comm = machine.comm_params
    th = comm.thresholds
    sizes = [0.0, 1.0, 1e9, np.inf, np.nan]
    for limit in (th.short_limit, th.eager_limit, th.gpu_eager_limit):
        limit = float(limit)
        sizes += [np.nextafter(limit, 0.0), limit,
                  np.nextafter(limit, np.inf)]
    sizes = np.array(sizes)
    rows = [(kind, locality, pre_posted)
            for kind in TransportKind for locality in Locality
            for pre_posted in (False, True)]
    # all rows in one stack, so CPU and GPU rows share padded tables
    fp = stack_plans(machine, [_probe_plan(*row, sizes) for row in rows])
    for s, (kind, locality, pre_posted) in enumerate(rows):
        alpha, beta = comm.link_arrays(kind, locality, sizes,
                                       pre_posted=pre_posted)
        assert fp.alpha[s, 0, 0].tobytes() == alpha.tobytes()
        assert fp.beta[s, 0, 0].tobytes() == beta.tobytes()


def test_negative_message_size_rejected():
    machine = resolve_machine("lassen")
    plan = _probe_plan(TransportKind.CPU, Locality.OFF_NODE, False,
                       np.array([1.0, -1.0]))
    with pytest.raises(ValueError, match="message sizes must be >= 0"):
        stack_plans(machine, [plan])
