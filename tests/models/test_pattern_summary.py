"""PatternSummary validation and semantics."""

import numpy as np
import pytest

from repro.machine import lassen
from repro.models import PatternSummary
from repro.models.scenarios import Scenario, best_strategy, scenario_summary

BASE = dict(num_dest_nodes=4, messages_per_node_pair=2,
            bytes_per_node_pair=100.0, node_bytes=400.0,
            proc_bytes=100.0, proc_messages=2, proc_dest_nodes=2,
            active_gpus=1)

NAN = float("nan")

#: (field, invalid value, message) for every validated field
INVALID = [
    ("num_dest_nodes", -1, "num_dest_nodes must be >= 0"),
    ("num_dest_nodes", NAN, "num_dest_nodes must be >= 0"),
    ("active_gpus", 0, "active_gpus must be >= 1"),
    ("active_gpus", NAN, "active_gpus must be >= 1"),
    ("messages_per_node_pair", -1, "message counts must be >= 0"),
    ("proc_messages", -1, "message counts must be >= 0"),
    ("proc_messages", NAN, "message counts must be >= 0"),
    ("bytes_per_node_pair", -1.0, "byte counts must be >= 0"),
    ("bytes_per_node_pair", NAN, "byte counts must be >= 0"),
    ("node_bytes", -1.0, "byte counts must be >= 0"),
    ("node_bytes", NAN, "byte counts must be >= 0"),
    ("proc_bytes", -1.0, "byte counts must be >= 0"),
    ("proc_bytes", NAN, "byte counts must be >= 0"),
    ("proc_dest_nodes", 5,
     "a process cannot reach more nodes than its node does"),
    ("proc_dest_nodes", NAN,
     "a process cannot reach more nodes than its node does"),
]


def make(**kw):
    return PatternSummary(**{**BASE, **kw})


def make_batch(width=5, bad_index=None, **kw):
    """Width-``width`` summary of ``BASE``; ``kw`` lands at ``bad_index``."""
    fields = {name: np.full(width, value) for name, value in BASE.items()}
    for name, value in kw.items():
        fields[name] = fields[name].astype(float)
        fields[name][bad_index] = value
    return PatternSummary(**fields)


class TestValidation:
    def test_valid_roundtrip(self):
        s = make()
        assert not s.is_empty

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            make(num_dest_nodes=-1)
        with pytest.raises(ValueError):
            make(messages_per_node_pair=-1)
        with pytest.raises(ValueError):
            make(node_bytes=-1.0)

    def test_proc_cannot_reach_more_nodes_than_node(self):
        with pytest.raises(ValueError):
            make(proc_dest_nodes=5)

    def test_active_gpus_positive(self):
        with pytest.raises(ValueError):
            make(active_gpus=0)

    @pytest.mark.parametrize("field,value,message", INVALID,
                             ids=[f"{f}={v}" for f, v, _ in INVALID])
    def test_scalar_and_batch_forms_raise_the_same_message(
            self, field, value, message):
        with pytest.raises(ValueError, match=message):
            make(**{field: value})
        with pytest.raises(ValueError, match=message):
            make_batch(bad_index=3, **{field: value})

    def test_valid_batch_passes(self):
        batch = make_batch()
        assert batch.is_batch and batch.width == 5
        assert not batch.is_empty.any()

    def test_mixed_or_ragged_fields_rejected(self):
        with pytest.raises(ValueError, match="all scalars or all 1-D"):
            make(node_bytes=np.full(3, 400.0))
        ragged = {name: np.full(3, value) for name, value in BASE.items()}
        ragged["proc_bytes"] = np.full(4, 100.0)
        with pytest.raises(ValueError, match="all scalars or all 1-D"):
            PatternSummary(**ragged)


class TestNaNSizes:
    def test_scenario_summary_rejects_nan_size(self):
        for size in (NAN, np.array([8.0, NAN])):
            with pytest.raises(ValueError, match="msg_size must be >= 0"):
                scenario_summary(lassen(), Scenario(4, 32), size)

    def test_best_strategy_rejects_nan_size(self):
        with pytest.raises(ValueError, match="msg_size must be >= 0"):
            best_strategy(lassen(), Scenario(4, 32), NAN)


class TestEmptiness:
    def test_zero_destinations_is_empty(self):
        s = make(num_dest_nodes=0, proc_dest_nodes=0)
        assert s.is_empty

    def test_zero_bytes_is_empty(self):
        s = make(node_bytes=0.0)
        assert s.is_empty


class TestDuplicateRemoval:
    def test_bounds(self):
        s = make()
        with pytest.raises(ValueError):
            s.with_duplicate_removal(-0.1)
        with pytest.raises(ValueError):
            s.with_duplicate_removal(1.0)
        with pytest.raises(ValueError):
            s.with_duplicate_removal(NAN)

    def test_zero_fraction_is_identity(self):
        s = make()
        assert s.with_duplicate_removal(0.0) == s

    def test_scales_only_bytes(self):
        s = make().with_duplicate_removal(0.5)
        assert s.bytes_per_node_pair == pytest.approx(50.0)
        assert s.node_bytes == pytest.approx(200.0)
        assert s.proc_bytes == pytest.approx(50.0)
        assert s.messages_per_node_pair == 2
        assert s.proc_messages == 2
        assert s.num_dest_nodes == 4
