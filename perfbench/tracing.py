"""In-memory spans around the calls into each layer of ``repro``.

The benchmark times layers from its own files: :meth:`Tracer.install`
replaces each traced function or method with a wrapper, in every
module that binds the name, and :meth:`Tracer.uninstall`
puts the originals back.  Untraced runs never install the wrappers, so
the end-to-end numbers carry no tracing cost.

A span is ``[name, start, end, parent, op]``: the layer name, two
``perf_counter`` readings, the index of the enclosing span (``-1`` at
the top) and the id of the benchmark operation it ran under
(:data:`SETUP_OP` during set-up, :data:`SIDE_OP` during a call timed
apart from the operation, such as the advisor's atlas lookup, and
:data:`CHECK_OP` while the benchmark checks a result).  Counters count
only the calls made by the operations themselves.  A layer's self time is its duration minus the part
its direct child spans cover.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

SETUP_OP = -1
CHECK_OP = -2
SIDE_OP = -3

#: modules whose bindings of a traced function get the wrapper
CALLERS = ("repro", "perfbench")

#: span name -> (module, attribute path) of the functions it times; a
#: name listed twice sums both callees (e.g. isend, irecv and waitall)
FUNCTIONS: Tuple[Tuple[str, str, str], ...] = (
    ("models.registry", "repro.models.strategies", "all_strategy_models"),
    ("models.fused", "repro.models.scenarios", "fused_scenario_times"),
    ("models.select", "repro.models.scenarios", "best_strategy_sweep"),
    ("paths.compile", "repro.models.strategies",
     "StrategyModel.compile_plan_batch"),
    ("paths.compile", "repro.models.strategies", "StrategyModel.compile_plan"),
    ("paths.stack", "repro.paths.kernel", "stack_plans"),
    ("paths.evaluate", "repro.paths.kernel", "FusedPlans.evaluate"),
    ("atlas.lookup", "repro.atlas.index", "AtlasIndex.lookup"),
    ("atlas.build", "repro.atlas.build", "build_atlas"),
    ("par.sweep_map", "repro.par.executor", "sweep_map"),
    ("sparse.build", "repro.sparse.suite", "SuiteMatrix.build"),
    ("sparse.partition", "repro.sparse.distributed", "DistributedCSR.__init__"),
    ("sparse.partition", "repro.sparse.distributed",
     "DistributedCSR.comm_pattern"),
    ("mpi.job_run", "repro.mpi.job", "SimJob.run"),
    ("mpi.resolve", "repro.mpi.transport", "Transport.resolve"),
    ("mpi.comm", "repro.mpi.communicator", "CommHandle.isend"),
    ("mpi.comm", "repro.mpi.communicator", "CommHandle.irecv"),
    ("mpi.comm", "repro.mpi.communicator", "CommHandle.waitall"),
    ("sim.engine", "repro.sim.engine", "Simulator.run"),
    ("faults.cell", "repro.faults.chaos", "_run_once"),
)

def _count_compile(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["paths.plans_compiled"] += 1


def _count_stack(tracer: "Tracer", args, kwargs, result) -> None:
    plans = args[1] if len(args) > 1 else kwargs["plans"]
    tracer.counts["paths.hops_stacked"] += sum(
        len(stage.hops) for plan in plans for stage in plan.stages)


def _count_evaluate(tracer: "Tracer", args, kwargs, result) -> None:
    if result is not None:
        tracer.counts["paths.cells_evaluated"] += int(result.size)


def _count_job(tracer: "Tracer", args, kwargs, result) -> None:
    job = args[0]
    stats = job.transport.stats
    counts = tracer.counts
    counts["mpi.messages"] += stats.messages
    counts["mpi.bytes"] += stats.bytes_sent
    counts["mpi.off_node_messages"] += stats.off_node_messages
    for protocol, n in stats.by_protocol.items():
        counts[f"mpi.protocol.{protocol.name.lower()}"] += n
    counts["mpi.copies"] += job.copy_engine.copies
    counts["mpi.ranks"] += job.layout.size
    counts["faults.retries"] += stats.retries
    counts["faults.timeouts"] += stats.timeouts
    counts["faults.gave_up"] += stats.gave_up
    counts["faults.degraded"] += stats.degraded


def _count_shard(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["par.shards"] += 1


#: span name -> counter hook, run after the span closes
HOOKS: Dict[str, Callable] = {
    "par.shard": _count_shard,
    "paths.compile": _count_compile,
    "paths.stack": _count_stack,
    "paths.evaluate": _count_evaluate,
    "mpi.job_run": _count_job,
}


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, original)`` for a dotted attribute path."""
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.missing: List[str] = []
        self.op = SETUP_OP
        self.ops_started = 0
        self._stack: List[int] = []
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------
    def next_op(self) -> None:
        """Tag the spans that follow with a fresh operation id."""
        self.op = self.ops_started
        self.ops_started += 1

    def call(self, name: str, fn: Callable, args, kwargs) -> Any:
        spans = self.spans
        index = len(spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.op]
        spans.append(span)
        self._stack.append(index)
        result = None
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            # counters also run when the call raises: a chaos exchange
            # that gives up still sent (and retried) its messages
            span[2] = perf_counter()
            self._stack.pop()
            hook = HOOKS.get(name)
            if hook is not None and self.op >= 0:
                hook(self, args, kwargs, result)

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self
        if name == "par.sweep_map":
            def sweep_map(shard_fn, *args, **kwargs):
                def shard(task):
                    return tracer.call("par.shard", shard_fn, (task,), {})
                return tracer.call(name, fn, (shard,) + args, kwargs)
            return sweep_map
        if name == "faults.cell":
            def run_once(*args, **kwargs):
                arm = ("faults.cell_traced" if kwargs.get("tracer")
                       else "faults.cell_plain")
                return tracer.call(arm, fn, args, kwargs)
            return run_once

        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs)
        return wrapper

    # -- patching ------------------------------------------------------------
    def install(self, strategy_classes=()) -> None:
        """Wrap every traced name; :meth:`uninstall` undoes it.

        Functions are replaced in every loaded ``repro`` or
        ``perfbench`` module that binds them, so callers that imported
        the name directly see the wrapper too; methods are replaced on
        their class.  Names a refactor removed are listed in
        :attr:`missing` and skipped.
        """
        self.missing = []
        targets: List[Tuple[str, Any, str, Any]] = []
        for name, module_name, path in FUNCTIONS:
            try:
                owner, attr, original = _resolve(module_name, path)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                continue
            targets.append((name, owner, attr, original))
        for cls in strategy_classes:
            owner = next(k for k in cls.__mro__ if "plan" in vars(k))
            targets.append(("core.plan", owner, "plan", vars(owner)["plan"]))
        seen = set()
        for name, owner, attr, original in targets:
            if (id(owner), attr) in seen:
                continue
            seen.add((id(owner), attr))
            wrapper = self._wrapper(name, original)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith(CALLERS):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------
    def times(self, op: Optional[int] = None
              ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """``(total, self)`` seconds per span name.

        Covers the spans of the measured operations, or with ``op``
        those tagged with it (e.g. :data:`SETUP_OP`).  A span directly
        inside one of the same name adds to neither total twice.
        """
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        total: Dict[str, float] = defaultdict(float)
        own: Dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            keep = span[4] >= 0 if op is None else span[4] == op
            if not keep:
                continue
            duration = span[2] - span[1]
            if span[3] < 0 or self.spans[span[3]][0] != span[0]:
                total[span[0]] += duration
            own[span[0]] += duration - covered[index]
        return total, own

    def check_nesting(self) -> List[str]:
        """Spans that do not lie inside their parent, or end early."""
        bad = []
        for index, (name, start, end, parent, op) in enumerate(self.spans):
            if end < start:
                bad.append(f"span {index} ({name}) ends before it starts")
            if parent >= 0:
                p = self.spans[parent]
                if not (p[1] <= start and end <= p[2] and p[4] == op):
                    bad.append(f"span {index} ({name}) escapes parent "
                               f"{parent} ({p[0]})")
        return bad
