"""Host speed probe: scale measured times to a reference host speed.

The benchmark runs on a few cores of a shared machine whose speed is
set by other tenants, and it changes within milliseconds: over 4
minutes of the same ``advisor`` queries in one process, the median
query time of 15 s stretches ranged from 1.12 to 1.86 ms (max/min
1.66).  So the harness times :func:`probe`, a fixed piece of
interpreter and numpy work that calls no ``repro`` code, in a short
block before every operation, and scales each operation by the mean of
the block just before it and the block just after it.  Over the same
4 minutes, the scaled median of the 15 s stretches ranged 1.03x and
the scaled p90 1.05x, against 1.66x and 1.19x unscaled.

A scaled time is the measured time multiplied by
``REFERENCE_PROBE_S / probe time``: the time the operation would take
on a host where one probe takes :data:`REFERENCE_PROBE_S`.  The program
under test cannot change the probe, so a program that gets faster or
slower moves scaled and raw times by the same factor.  Raw times are
printed in the report next to the scaled ones.
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter
from typing import Dict, List, Tuple

import numpy as np

#: probe time, in seconds, on the reference host
REFERENCE_PROBE_S = 200e-6
#: probe time per operation, as a share of the previous operation's time
PROBE_SHARE = 0.1

_SMALL = np.linspace(0.0, 1.0, 48)
_WIDE = np.linspace(0.5, 1.5, 2048)


def probe() -> float:
    """Seconds taken by one fixed unit of interpreter and numpy work."""
    t0 = perf_counter()
    heap: List[Tuple[int, int]] = []
    counts: Dict[int, int] = {}
    acc = 0.0
    for i in range(120):
        heapq.heappush(heap, ((i * 7919) % 257, i))
        counts[i % 31] = counts.get(i % 31, 0) + 1
        acc += float(_SMALL[i % 48]) * 1.5
        if i % 24 == 0:
            acc += float(np.dot(_SMALL, _SMALL))
    while heap:
        acc += heapq.heappop(heap)[0]
    acc += float(np.log(_WIDE * 1.5).sum())
    return perf_counter() - t0


class SpeedLog:
    """Probe blocks over one run, and the scale factors they give."""

    def __init__(self) -> None:
        #: median probe seconds of each block, in run order
        self.blocks: List[float] = []
        self.probes = 0

    def probe(self, budget: float) -> int:
        """Probe until ``budget`` seconds are spent, at least once;
        returns the new block's index."""
        times: List[float] = []
        while not times or sum(times) < budget:
            times.append(probe())
        self.blocks.append(statistics.median(times))
        self.probes += len(times)
        return len(self.blocks) - 1

    def probe_share(self, last_op_s: float) -> int:
        """A block of :data:`PROBE_SHARE` of the previous operation."""
        return self.probe(PROBE_SHARE * last_op_s)

    def scale(self, block: int) -> float:
        """Factor that maps a time measured right after ``block`` (and
        before the next block) to the reference host speed."""
        after = self.blocks[min(block + 1, len(self.blocks) - 1)]
        return REFERENCE_PROBE_S / ((self.blocks[block] + after) / 2)

    def summary(self) -> Dict[str, float]:
        """Probe and block counts and block quartiles, for the report."""
        out: Dict[str, float] = {"probes": self.probes,
                                 "blocks": len(self.blocks)}
        if len(self.blocks) >= 2:
            q1, q2, q3 = statistics.quantiles(self.blocks, n=4)
            out.update({"block_q1_us": q1 * 1e6, "block_median_us": q2 * 1e6,
                        "block_q3_us": q3 * 1e6})
        return out
