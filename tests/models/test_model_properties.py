"""Property-based invariants of the strategy models (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import lassen
from repro.machine.presets import PRESETS, resolve_machine
from repro.models import PatternSummary, all_strategy_models
from repro.models.strategies import model_label

M = lassen()
MODELS = all_strategy_models(M)


@st.composite
def summaries(draw, allow_empty=False):
    """A valid summary; ``allow_empty`` also draws zero-byte patterns."""
    n_dest = draw(st.integers(min_value=1, max_value=64))
    mpp = draw(st.integers(min_value=1, max_value=64))
    bpp = draw(st.floats(min_value=8.0, max_value=1e7))
    if allow_empty and draw(st.booleans()):
        bpp = 0.0
    node_factor = draw(st.floats(min_value=1.0, max_value=float(n_dest)))
    node_bytes = bpp * node_factor
    proc_bytes = draw(st.floats(min_value=min(8.0, node_bytes),
                                max_value=node_bytes))
    proc_msgs = draw(st.integers(min_value=1, max_value=mpp * n_dest))
    active = draw(st.integers(min_value=1, max_value=4))
    return PatternSummary(
        num_dest_nodes=n_dest,
        messages_per_node_pair=mpp,
        bytes_per_node_pair=bpp,
        node_bytes=node_bytes,
        proc_bytes=proc_bytes,
        proc_messages=proc_msgs,
        proc_dest_nodes=min(n_dest, proc_msgs),
        active_gpus=active,
    )


@settings(max_examples=60, deadline=None)
@given(summary=summaries())
def test_models_finite_positive(summary):
    for model in MODELS:
        t = model.time(summary)
        assert np.isfinite(t) and t > 0, model_label(model)


@settings(max_examples=60, deadline=None)
@given(summary=summaries(),
       scale=st.floats(min_value=1.5, max_value=20.0))
def test_models_monotone_in_volume(summary, scale):
    """Scaling every byte quantity up never reduces modelled time."""
    import dataclasses

    bigger = dataclasses.replace(
        summary,
        bytes_per_node_pair=summary.bytes_per_node_pair * scale,
        node_bytes=summary.node_bytes * scale,
        proc_bytes=summary.proc_bytes * scale,
    )
    for model in MODELS:
        t_small = model.time(summary)
        t_big = model.time(bigger)
        # Protocol switchovers can only increase alpha with size on
        # this machine, so monotonicity must hold exactly.
        assert t_big >= t_small - 1e-18, model_label(model)


@settings(max_examples=60, deadline=None)
@given(summary=summaries(),
       dup=st.floats(min_value=0.01, max_value=0.9))
def test_dup_removal_never_hurts_node_aware(summary, dup):
    for model in MODELS:
        if not model.node_aware:
            continue
        assert (model.time(summary, dup_fraction=dup)
                <= model.time(summary) + 1e-18), model_label(model)


@settings(max_examples=40, deadline=None)
@given(summary=summaries())
def test_split_counts_cover_volume(summary):
    """Algorithm-1 chunking: messages x cap covers the pair volume."""
    from repro.models.strategies import SplitMDModel

    model = SplitMDModel(M)
    total_msgs, msg_size = model.split_counts(summary)
    per_pair = total_msgs / summary.num_dest_nodes
    assert per_pair * msg_size >= summary.bytes_per_node_pair - 1e-9
    assert total_msgs >= summary.num_dest_nodes


ALL_PRESET_MODELS = {
    name: all_strategy_models(resolve_machine(name), include_extended=True)
    for name in PRESETS
}


@pytest.mark.parametrize("machine_name", sorted(PRESETS))
@pytest.mark.parametrize("dup_fraction", [0.0, 0.25])
@settings(max_examples=15, deadline=None)
@given(batch=st.lists(summaries(allow_empty=True), min_size=1, max_size=8))
def test_time_sweep_bit_identical_to_scalar_time(machine_name, dup_fraction,
                                                 batch):
    """The array coster equals per-element scalar ``time`` bit-for-bit."""
    for model in ALL_PRESET_MODELS[machine_name]:
        swept = model.time_sweep(batch, dup_fraction=dup_fraction)
        expected = [model.time(s, dup_fraction=dup_fraction) for s in batch]
        assert np.all(np.isfinite(swept)), model_label(model)
        assert [float.hex(float(t)) for t in swept] == \
               [float.hex(t) for t in expected], model_label(model)


def _limit_sizes(machine):
    """Each protocol limit of ``machine`` and one ulp either side."""
    th = machine.comm_params.thresholds
    sizes = []
    for limit in (th.short_limit, th.eager_limit, th.gpu_eager_limit):
        limit = float(limit)
        sizes += [np.nextafter(limit, 0.0), limit,
                  np.nextafter(limit, np.inf)]
    return sizes


@st.composite
def point_queries(draw):
    """``(preset, extended, scenario, size)`` for one-cell queries.

    Sizes include 0 (an empty pattern) and every protocol limit of the
    preset with its two neighbouring floats.
    """
    from repro.models.scenarios import Scenario

    name = draw(st.sampled_from(sorted(PRESETS)))
    n_dest = draw(st.integers(min_value=1, max_value=64))
    msgs = n_dest * draw(st.integers(min_value=1, max_value=16))
    dup = draw(st.sampled_from([0.0, 0.25])
               | st.floats(min_value=0.0, max_value=0.9))
    size = draw(st.sampled_from(
        [0.0] + _limit_sizes(resolve_machine(name)))
        | st.floats(min_value=0.0, max_value=1e8))
    return (name, draw(st.booleans()),
            Scenario(num_dest_nodes=n_dest, num_messages=msgs,
                     dup_fraction=dup), float(size))


@settings(max_examples=150, deadline=None)
@given(query=point_queries())
def test_one_cell_query_bit_identical_to_scalar_time(query):
    """A one-cell ``fused_scenario_times`` row is per-model scalar
    ``time``, and ``best_strategy`` is the strict-``<`` scalar argmin."""
    from repro.models.scenarios import (
        best_strategy,
        fused_scenario_times,
        scenario_summary,
    )

    name, extended, scenario, size = query
    machine = resolve_machine(name)
    models = all_strategy_models(machine, include_extended=extended)
    labels, times = fused_scenario_times(machine, [scenario], [size],
                                         include_extended=extended)
    summary = scenario_summary(machine, scenario, size)
    expected = [m.time(summary, scenario.dup_fraction) for m in models]
    assert labels == [model_label(m) for m in models]
    assert times.shape == (len(models), 1, 1)
    assert [float.hex(float(t)) for t in times[:, 0, 0]] == \
           [float.hex(t) for t in expected]
    best = None
    for label, model, t in zip(labels, models, expected):
        if model.name != "2-Step 1" and (best is None or t < best[1]):
            best = (label, t)
    assert best_strategy(machine, scenario, size,
                         include_extended=extended) == best[0]
