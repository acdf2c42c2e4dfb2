"""Summary statistics of a standard irregular P2P pattern (Table 7).

All strategy models consume a :class:`PatternSummary` describing the
*standard* (untransformed) communication pattern of the busiest node;
each strategy model then applies its own aggregation / splitting to
derive the Table-7 quantities it needs.  This is how the paper moves
from a concrete workload (e.g. a distributed SpMV) to model inputs.

Attributes mirror Table 7 with the addition of per-process message
counts (needed by the Standard models):

``num_dest_nodes``
    ``m_proc->node`` at node granularity: the number of distinct nodes
    the busiest node sends to.
``messages_per_node_pair``
    ``m_node->node``: max messages between any two nodes.
``bytes_per_node_pair``
    ``s_node->node``: max bytes between any two nodes.
``node_bytes``
    ``s_node``: max bytes injected by a single node.
``proc_bytes``
    ``s_proc``: max bytes sent off-node by a single process/GPU.
``proc_messages``
    max off-node messages sent by a single process/GPU.
``proc_dest_nodes``
    max number of distinct destination nodes for a single process/GPU.

A summary is either one pattern (every field a Python scalar) or a
batch of patterns (every field a 1-D numpy array of one shared shape,
e.g. a message-size sweep).  Both forms validate through the same
checks with the same messages; :meth:`PatternSummary.stack`
concatenates summaries of either form into one batch.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Sequence

import numpy as np

#: byte-valued fields: the only ones duplicate removal scales
_BYTE_FIELDS = ("bytes_per_node_pair", "node_bytes", "proc_bytes")


def _fails(ok: Any) -> bool:
    """True unless ``ok`` (a Python bool or a numpy bool/bool array) holds
    everywhere.

    Comparisons against NaN are False, so writing each check as the
    condition that must hold (``x >= 0``, not ``x < 0``) rejects NaN.
    """
    return not (ok if type(ok) is bool else ok.all())


@dataclass(frozen=True)
class PatternSummary:
    num_dest_nodes: int
    messages_per_node_pair: int
    bytes_per_node_pair: float
    node_bytes: float
    proc_bytes: float
    proc_messages: int
    proc_dest_nodes: int
    #: GPUs on the busiest node contributing off-node data.  1 (the
    #: paper's eq-4.2 worst case, one GPU holds everything) unless the
    #: workload is known to spread data evenly (Figure 4.3 scenarios).
    active_gpus: int = 1

    def __post_init__(self) -> None:
        values = [getattr(self, name) for name in _FIELDS]
        if any(isinstance(v, np.ndarray) for v in values):
            shape = np.shape(values[0])
            if len(shape) != 1 or any(np.shape(v) != shape for v in values):
                raise ValueError(
                    "summary fields must be all scalars or all 1-D arrays "
                    "of one shape")
        checks = (
            (self.num_dest_nodes >= 0, "num_dest_nodes must be >= 0"),
            (self.active_gpus >= 1, "active_gpus must be >= 1"),
            ((self.messages_per_node_pair >= 0) & (self.proc_messages >= 0),
             "message counts must be >= 0"),
            ((self.bytes_per_node_pair >= 0) & (self.node_bytes >= 0)
             & (self.proc_bytes >= 0), "byte counts must be >= 0"),
            (self.proc_dest_nodes <= self.num_dest_nodes,
             "a process cannot reach more nodes than its node does"),
        )
        for ok, message in checks:
            if _fails(ok):
                raise ValueError(message)

    @classmethod
    def stack(cls, summaries: Sequence["PatternSummary"]
              ) -> "PatternSummary":
        """One batch holding ``summaries`` (either form) end to end.

        A single batch is returned as is.  Byte fields are float64;
        counts keep their integer dtype.
        """
        summaries = list(summaries)
        if not summaries:
            raise ValueError("stack requires at least one summary")
        if len(summaries) == 1 and summaries[0].is_batch:
            return summaries[0]
        columns = {}
        for name in _FIELDS:
            column = np.concatenate(
                [np.atleast_1d(getattr(s, name)) for s in summaries])
            if name in _BYTE_FIELDS:
                column = column.astype(float, copy=False)
            columns[name] = column
        return cls(**columns)

    @property
    def is_batch(self) -> bool:
        """Whether the fields are arrays (a batch) rather than scalars."""
        return isinstance(self.node_bytes, np.ndarray)

    @property
    def width(self) -> int:
        """Number of patterns summarized (1 for the scalar form)."""
        return int(np.size(self.node_bytes))

    @property
    def is_empty(self) -> Any:
        """Whether nothing leaves the node (element-wise for a batch)."""
        return (self.num_dest_nodes == 0) | (self.node_bytes == 0)

    def with_duplicate_removal(self, dup_fraction: Any) -> "PatternSummary":
        """Shrink all byte quantities by ``dup_fraction``.

        Models the node-aware strategies' elimination of duplicate data
        (Figure 4.3 bottom rows use ``dup_fraction = 0.25``); message
        *counts* are unchanged — deduplication removes payload, not
        destinations.  ``dup_fraction`` is one fraction, or one per
        element of a batch.
        """
        if _fails((dup_fraction >= 0.0) & (dup_fraction < 1.0)):
            raise ValueError(
                f"dup_fraction must be in [0, 1), got {dup_fraction!r}")
        keep = 1.0 - dup_fraction
        return replace(self, **{name: getattr(self, name) * keep
                                for name in _BYTE_FIELDS})


_FIELDS = tuple(f.name for f in fields(PatternSummary))
