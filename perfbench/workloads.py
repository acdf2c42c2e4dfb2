"""The benchmark's workloads: seeded inputs, the timed call, its oracle.

Each workload builds its inputs from the seed alone, runs them as
*passes* of operations in a closed loop (one client, one process, no
threads, ``jobs=1``), and checks every result outside the timed region.
A pass is the unit the harness repeats: a fresh batch of queries, one
sweep over the presets, every SpMV exchange once, or one chaos sweep.
See ``perfbench/README.md`` for why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.atlas import AtlasGridSpec, AtlasIndex, build_atlas, default_grid
from repro.core.base import default_data, run_exchange, verify_exchange
from repro.core.selector import all_strategies
from repro.faults import chaos
from repro.machine import resolve_machine
from repro.models.scenarios import Scenario, best_strategy, scenario_summary
from repro.models.strategies import all_strategy_models, model_label
from repro.mpi.job import SimJob
from repro.sparse.distributed import DistributedCSR
from repro.sparse.suite import SUITE

from perfbench.tracing import CHECK_OP, SIDE_OP

#: presets the point-query workloads alternate between
QUERY_PRESETS = ("lassen", "frontier_like")
#: queries per pass, and warm-up queries per set-up
PASS_QUERIES = 500
WARMUP_QUERIES = 100
#: query mix: share exactly on the atlas lattice, share off-grid inside
#: its hull; the rest fall outside the hull on one axis
ON_GRID_SHARE = 0.10
INSIDE_SHARE = 0.75

SWEEP_PRESETS = ("lassen", "summit", "frontier_like")
#: grid shape of the dense sweep: node counts x message counts x dup
#: fractions x sizes
SWEEP_SHAPE = (7, 4, 3, 256)
SWEEP_DUPS = (0.0, 0.05, 0.1, 0.125, 0.15, 0.2, 0.25, 0.3)
#: grid cells re-costed by the scalar oracle per build
SWEEP_SPOT_CHECKS = 8

SPMV_PRESET = "lassen"
SPMV_GPUS = (8, 16, 32)
#: the exchange used to warm the DES up during set-up
SPMV_WARMUP_CASE = ("bone010", 8)

#: the Table-5 analytic bound that best-strategy answers leave out
BEST_CASE = "2-Step 1"

# seed-stream tags, so no two input families share random draws
_WARMUP, _PASS, _CHECK, _INPUT = 0, 1, 2, 3


def stream(seed: int, *tags: int) -> np.random.Generator:
    """An independent generator for one family of inputs."""
    return np.random.default_rng([seed, *tags])


def derived_seed(seed: int, *tags: int) -> int:
    """A non-negative 31-bit seed for one input family."""
    state = np.random.SeedSequence([seed, *tags]).generate_state(1)[0]
    return int(state >> 1)


@dataclass
class PassResult:
    """What one pass (or several, merged) measured.

    Times are ``(block, seconds)`` pairs: ``block`` indexes the
    host-speed probe block run just before the timed call (``-1`` when
    none ran), so the harness can scale each time by the host speed
    around it (:mod:`perfbench.hostspeed`).
    """

    #: the timed operations
    timings: List[Tuple[int, float]] = field(default_factory=list)
    #: a second call timed apart from each operation (advisor: the
    #: atlas lookup of the same query)
    side: List[Tuple[int, float]] = field(default_factory=list)
    #: timed work outside any operation (chaos: the sweep's assembly)
    extra: List[Tuple[int, float]] = field(default_factory=list)
    work: int = 0
    attempted: int = 0
    failed: int = 0

    @property
    def latencies(self) -> List[float]:
        return [seconds for _block, seconds in self.timings]

    @property
    def busy(self) -> float:
        """Seconds in the timed operations and the extra timed work."""
        return sum(self.latencies) + sum(s for _block, s in self.extra)

    def add(self, block: int, seconds: float, work: int, ok: bool) -> None:
        self.timings.append((block, seconds))
        self.work += work
        self.attempted += 1
        self.failed += 0 if ok else 1

    def merge(self, other: "PassResult") -> None:
        self.timings.extend(other.timings)
        self.side.extend(other.side)
        self.extra.extend(other.extra)
        self.work += other.work
        self.attempted += other.attempted
        self.failed += other.failed


class Workload:
    """One seeded workload (subclasses fill in the hooks)."""

    name = ""
    #: what one operation is and what its work units count
    op_unit = ""
    work_unit = ""

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def ops(self, k: int) -> List[Any]:
        """The operations of pass ``k`` (a pure function of the seed)."""
        raise NotImplementedError

    def run(self, op: Any) -> Any:
        """The timed call."""
        raise NotImplementedError

    def check(self, op: Any, results: Tuple[Any, Any],
              traced: bool) -> Tuple[bool, int]:
        """``(correct, work units)`` for the results of :meth:`run` and
        :meth:`run_side`, outside the timer."""
        raise NotImplementedError

    def run_side(self, op: Any) -> Optional[Tuple[Any, float]]:
        """A second call timed apart from the operation, as ``(result,
        seconds)``; none here."""
        return None

    def run_pass(self, ops: List[Any], tracer=None,
                 speed=None) -> PassResult:
        """Run ``ops`` in order; with a ``speed`` log, probe between them."""
        out = PassResult()
        last = 0.0
        for op in ops:
            block = -1 if speed is None else speed.probe_share(last)
            if tracer is not None:
                tracer.next_op()
            t0 = perf_counter()
            result = self.run(op)
            seconds = perf_counter() - t0
            if tracer is not None:
                tracer.op = SIDE_OP
            side = self.run_side(op)
            if side is not None:
                out.side.append((block, side[1]))
                side = side[0]
            if tracer is not None:
                tracer.op = CHECK_OP
            ok, work = self.check(op, (result, side), tracer is not None)
            out.add(block, seconds, work, ok)
            last = perf_counter() - t0
        return out

    def layer_counts(self) -> Dict[str, int]:
        """Cumulative counters the workload reads off the program."""
        return {}

    def report(self) -> Dict[str, Any]:
        """Extra facts for the report (digests, input description)."""
        return {}


# ---------------------------------------------------------------------------
# Point queries: exact advisor and atlas index
# ---------------------------------------------------------------------------
class Oracle:
    """Exact winner by the scalar path: the argmin of
    ``StrategyModel.time`` in registry order, ``2-Step 1`` excluded."""

    def __init__(self, machine) -> None:
        self.machine = machine
        self.models = [m for m in all_strategy_models(machine)
                       if m.name != BEST_CASE]
        self.labels = [model_label(m) for m in self.models]

    def times(self, scenario: Scenario, size: float) -> List[float]:
        summary = scenario_summary(self.machine, scenario, size)
        return [m.time(summary, scenario.dup_fraction) for m in self.models]

    def winner(self, scenario: Scenario, size: float) -> str:
        times = self.times(scenario, size)
        best = 0
        for index, t in enumerate(times):
            if t < times[best]:
                best = index
        return self.labels[best]


Query = Tuple[str, Scenario, float, str]


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def make_queries(rng: np.random.Generator, n: int,
                 grid: AtlasGridSpec) -> List[Query]:
    """``n`` point queries ``(preset, scenario, size, kind)``.

    ``kind`` is ``on-grid`` (every axis on a lattice value), ``inside``
    (off-grid within the grid's hull) or ``outside`` (beyond the hull
    on one axis: more nodes, more messages or larger messages).
    """
    nodes_max, msgs_max = grid.node_counts[-1], grid.msg_counts[-1]
    queries = []
    for _ in range(n):
        preset = QUERY_PRESETS[int(rng.integers(len(QUERY_PRESETS)))]
        u = rng.random()
        if u < ON_GRID_SHARE:
            kind = "on-grid"
            nodes = grid.node_counts[int(rng.integers(len(grid.node_counts)))]
            msgs = grid.msg_counts[int(rng.integers(len(grid.msg_counts)))]
            dup = grid.dup_fractions[
                int(rng.integers(len(grid.dup_fractions)))]
            size = grid.sizes[int(rng.integers(len(grid.sizes)))]
        else:
            kind = "inside" if u < ON_GRID_SHARE + INSIDE_SHARE else "outside"
            nodes = int(rng.integers(grid.node_counts[0], nodes_max + 1))
            msgs = int(round(_log_uniform(rng, grid.msg_counts[0], msgs_max)))
            dup = float(rng.uniform(grid.dup_fractions[0],
                                    grid.dup_fractions[-1]))
            size = _log_uniform(rng, grid.sizes[0], grid.sizes[-1])
            if kind == "outside":
                axis = int(rng.integers(3))
                if axis == 0:
                    nodes = int(rng.integers(nodes_max + 1, 2 * nodes_max + 1))
                    msgs = max(msgs, nodes)
                elif axis == 1:
                    msgs = int(rng.integers(msgs_max + 1, 4 * msgs_max + 1))
                else:
                    size = _log_uniform(rng, grid.sizes[-1],
                                        10.0 * grid.sizes[-1])
        queries.append((preset, Scenario(num_dest_nodes=int(nodes),
                                         num_messages=int(msgs),
                                         dup_fraction=float(dup)),
                        float(size), kind))
    return queries


class Advisor(Workload):
    """``best_strategy`` answered exactly, one point at a time, and the
    same query answered again through an :class:`AtlasIndex`."""

    name = "advisor"
    op_unit = "exact point query"
    work_unit = "strategy costs answered"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.grid = default_grid()
        self.machines = {name: resolve_machine(name)
                         for name in QUERY_PRESETS}
        self.oracles = {name: Oracle(m) for name, m in self.machines.items()}
        self.indexes = {
            name: AtlasIndex(build_atlas(machine, self.grid, jobs=1))
            for name, machine in self.machines.items()}
        self.interpolated = self.agreed = 0
        for query in make_queries(stream(seed, _WARMUP), WARMUP_QUERIES,
                                  self.grid):
            self.run(query)
            self.run_side(query)

    def ops(self, k: int) -> List[Query]:
        return make_queries(stream(self.seed, _PASS, k), PASS_QUERIES,
                            self.grid)

    def run(self, query: Query) -> str:
        preset, scenario, size, _kind = query
        return best_strategy(self.machines[preset], scenario, size)

    def run_side(self, query: Query):
        preset, scenario, size, _kind = query
        t0 = perf_counter()
        answer = self.indexes[preset].lookup(scenario, size)
        return answer, perf_counter() - t0

    def check(self, query: Query, results,
              traced: bool) -> Tuple[bool, int]:
        preset, scenario, size, _kind = query
        exact, atlas = results
        oracle = self.oracles[preset]
        want = oracle.winner(scenario, size)
        ok = exact == want
        if atlas.exact or not atlas.interpolated:
            # exact fallbacks and on-grid hits must name the exact winner
            ok = ok and atlas.winner == want
        elif traced:
            # interpolated winners may differ; the traced run measures
            # how often they do
            self.interpolated += 1
            self.agreed += atlas.winner == want
        return ok, len(oracle.models)

    def layer_counts(self) -> Dict[str, int]:
        counts = {"atlas.interpolated": self.interpolated,
                  "atlas.agreed": self.agreed}
        for index in self.indexes.values():
            for key, value in index.counters().items():
                counts[key] = counts.get(key, 0) + value
        return counts


# ---------------------------------------------------------------------------
# Dense atlas builds
# ---------------------------------------------------------------------------
def sweep_grid(seed: int) -> AtlasGridSpec:
    """The seeded dense grid (shape :data:`SWEEP_SHAPE`)."""
    rng = stream(seed, _INPUT)
    n_nodes, n_msgs, n_dups, n_sizes = SWEEP_SHAPE
    nodes = sorted(int(v) for v in rng.choice(np.arange(2, 33), n_nodes,
                                              replace=False))
    low = max(nodes[-1], 32)
    msgs = sorted(int(v) for v in rng.choice(np.arange(low, 1025), n_msgs,
                                             replace=False))
    dups = sorted(float(v) for v in rng.choice(SWEEP_DUPS, n_dups,
                                               replace=False))
    lo, hi = rng.uniform(0.5, 1.5), rng.uniform(5.5, 6.5)
    return AtlasGridSpec(node_counts=tuple(nodes), msg_counts=tuple(msgs),
                         dup_fractions=tuple(dups),
                         sizes=tuple(np.logspace(lo, hi, n_sizes)))


class Sweep(Workload):
    """``build_atlas`` over a dense grid, serially, per preset."""

    name = "sweep"
    op_unit = "atlas build (one preset)"
    work_unit = "strategy x grid cells costed"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.spec = sweep_grid(seed)
        self.machines = {name: resolve_machine(name)
                         for name in SWEEP_PRESETS}
        self.oracles = {name: Oracle(m) for name, m in self.machines.items()}
        for name in SWEEP_PRESETS:
            self.run((-1, name))

    def ops(self, k: int) -> List[Tuple[int, str]]:
        order = stream(self.seed, _PASS, k).permutation(len(SWEEP_PRESETS))
        return [(k, SWEEP_PRESETS[int(i)]) for i in order]

    def run(self, op: Tuple[int, str]):
        return build_atlas(self.machines[op[1]], self.spec, jobs=1)

    def check(self, op: Tuple[int, str], results,
              traced: bool) -> Tuple[bool, int]:
        k, preset = op
        atlas, _side = results
        oracle = self.oracles[preset]
        ok = (atlas.labels == oracle.labels
              and np.array_equal(atlas.winners_idx,
                                 np.argmin(atlas.times, axis=0)))
        rng = stream(self.seed, _CHECK, k, SWEEP_PRESETS.index(preset))
        for _ in range(SWEEP_SPOT_CHECKS):
            i, j, d, z = (int(rng.integers(n)) for n in self.spec.shape)
            scenario = self.spec.scenario_at(i, j, d)
            want = oracle.times(scenario, self.spec.sizes[z])
            ok = ok and list(atlas.times[:, i, j, d, z]) == want
        return ok, len(atlas.labels) * self.spec.cells

    def report(self) -> Dict[str, Any]:
        return {"grid": self.spec.to_dict() | {"shape": self.spec.shape}}


# ---------------------------------------------------------------------------
# Figure 5.1 exchanges in the DES
# ---------------------------------------------------------------------------
def _stats_entry(result) -> List[Any]:
    s = result.stats
    return [result.comm_time.hex(), s.messages, s.bytes_sent,
            s.off_node_messages, s.off_node_bytes,
            sorted((p.name, n) for p, n in s.by_protocol.items()),
            s.retries, s.timeouts, s.gave_up, s.degraded]


def digest(entries: Dict[str, Any]) -> str:
    """sha256 over canonical JSON of per-(case, strategy) virtual results."""
    text = json.dumps(entries, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class SpmvDes(Workload):
    """Every Table-5 strategy on every SUITE matrix at 8/16/32 GPUs."""

    name = "spmv_des"
    op_unit = "simulated exchange"
    work_unit = "simulated messages"

    def setup(self, seed: int) -> None:
        self.seed = seed
        machine = resolve_machine(SPMV_PRESET)
        self.strategies = all_strategies(include_extended=False)
        jobs = {gpus: SimJob(machine, num_nodes=gpus // machine.gpus_per_node,
                             ppn=machine.max_ppn)
                for gpus in SPMV_GPUS}
        rng = stream(seed, _INPUT)
        cases = {}
        for name, entry in SUITE.items():
            matrix = entry.build()
            for gpus in SPMV_GPUS:
                pattern = DistributedCSR(matrix, num_gpus=gpus).comm_pattern()
                data = default_data(pattern, jobs[gpus].layout,
                                    seed=int(rng.integers(2 ** 31)))
                cases[(name, gpus)] = (jobs[gpus], pattern, data)
        self.cases = cases
        self.entries: Dict[str, Any] = {}
        for index in range(len(self.strategies)):
            self.run(SPMV_WARMUP_CASE + (index,))

    def ops(self, k: int) -> List[Tuple[str, int, int]]:
        keys = [(name, gpus, index) for (name, gpus) in self.cases
                for index in range(len(self.strategies))]
        order = stream(self.seed, _PASS, k).permutation(len(keys))
        return [keys[int(i)] for i in order]

    def run(self, op: Tuple[str, int, int]):
        name, gpus, index = op
        job, pattern, data = self.cases[(name, gpus)]
        return run_exchange(job, self.strategies[index], pattern, data=data)

    def check(self, op: Tuple[str, int, int], results,
              traced: bool) -> Tuple[bool, int]:
        name, gpus, index = op
        result, _side = results
        _job, pattern, data = self.cases[(name, gpus)]
        ok = True
        try:
            verify_exchange(result, pattern, data)
        except AssertionError:
            ok = False
        key = f"{name}/{gpus}/{self.strategies[index].label}"
        entry = _stats_entry(result)
        # every pass repeats every case: its virtual result must not move
        ok = ok and self.entries.setdefault(key, entry) == entry
        return ok, result.stats.messages

    def report(self) -> Dict[str, Any]:
        return {"digest": digest(self.entries),
                "digest_cases": len(self.entries)}


# ---------------------------------------------------------------------------
# Chaos sweeps
# ---------------------------------------------------------------------------
class Chaos(Workload):
    """``run_chaos(seed, smoke=False, jobs=1)``, one sweep per pass."""

    name = "chaos"
    op_unit = "chaos cell (plain + traced run)"
    work_unit = "simulated messages (both arms)"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.digests: Dict[int, str] = {}
        chaos.run_chaos(derived_seed(seed, _WARMUP), smoke=True, jobs=1)

    def ops(self, k: int) -> List[int]:
        return [derived_seed(self.seed, _PASS, k)]

    def run_pass(self, ops: List[int], tracer=None,
                 speed=None) -> PassResult:
        out = PassResult()
        for seed in ops:
            cells: List[Tuple[Tuple, int, float]] = []
            probing = [0.0]
            shard = chaos.run_chaos_shard

            def timed_shard(spec):
                block = -1
                if speed is not None:
                    p0 = perf_counter()
                    block = speed.probe_share(cells[-1][2] if cells else 0.0)
                    probing[0] += perf_counter() - p0
                t0 = perf_counter()
                value = shard(spec)
                cells.append((spec, block, perf_counter() - t0))
                return value

            chaos.run_chaos_shard = timed_shard
            if tracer is not None:
                tracer.next_op()
            t0 = perf_counter()
            try:
                report = chaos.run_chaos(seed, smoke=False, jobs=1)
            finally:
                chaos.run_chaos_shard = shard
            wall = perf_counter() - t0
            if tracer is not None:
                tracer.op = CHECK_OP
            sweep_digest = digest({
                "scenarios": report["scenarios"],
                "counters": report["metrics"]["counters"]})
            # a repeated sweep must reproduce its virtual results exactly
            repeatable = (self.digests.setdefault(seed, sweep_digest)
                          == sweep_digest)
            bad = {line.split(":", 1)[0].replace(" [traced]", "")
                   for line in report["violations"]}
            results = {f"scenario {sc['index']} / {label}": outcome
                       for sc in report["scenarios"]
                       for label, outcome in sc["results"].items()}
            for spec, block, seconds in cells:
                where = f"scenario {spec[2]} / {spec[3]}"
                ok = (repeatable and report["ok"] and where not in bad
                      and results[where]["outcome"] != "quarantined")
                out.add(block, seconds, 2 * results[where]["messages"], ok)
            # the sweep's wall time, not the sum of its cells, is what
            # a user of the sweep waits for
            out.extra.append((cells[-1][1], wall - probing[0] - sum(
                seconds for _spec, _block, seconds in cells)))
        return out

    def report(self) -> Dict[str, Any]:
        first = derived_seed(self.seed, _PASS, 0)
        return {"digest": self.digests.get(first, ""),
                "digest_of": f"pass 0 (run_chaos seed {first})"}


WORKLOADS = {cls.name: cls for cls in (Advisor, Sweep, SpmvDes, Chaos)}
