"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload advisor --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace
1`` alternates untraced and traced passes over one fixed pass of inputs
and prints the per-layer metrics.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it are the full report (host, seed, sample counts,
digests).  The program under test is imported from this checkout's
``src`` directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_REPS = 3
#: seconds of host-speed probes before and after each set-up
SETUP_PROBE_S = 0.05

#: end-to-end metrics (untraced runs): name -> unit
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "work_per_s": "1/s",
}

#: per-layer metrics (traced runs): name -> unit.  Times are per
#: measured operation (``sparse.*``: per set-up); counts are totals over
#: one traced pass, so they repeat exactly for a seed.
PER_LAYER = {
    "models.registry_us": "us",
    "models.fused_self_us": "us",
    "models.select_self_us": "us",
    "paths.compile_us": "us",
    "paths.plans_compiled": "count",
    "paths.stack_us": "us",
    "paths.hops_stacked": "count",
    "paths.evaluate_us": "us",
    "paths.cells_evaluated": "count",
    "atlas.query_p50_us": "us",
    "atlas.query_p90_us": "us",
    "atlas.lookup_self_us": "us",
    "atlas.hit_ratio": "ratio",
    "atlas.fallbacks_hull": "count",
    "atlas.fallbacks_margin": "count",
    "atlas.agree_ratio": "ratio",
    "atlas.build_self_s": "s",
    "par.sweep_map_overhead_s": "s",
    "par.shards": "count",
    "sparse.build_s": "s",
    "sparse.partition_s": "s",
    "core.plan_ms": "ms",
    "mpi.job_run_self_ms": "ms",
    "mpi.transport_resolve_us": "us",
    "mpi.messages": "count",
    "mpi.bytes": "B",
    "mpi.off_node_messages": "count",
    "mpi.protocol.short": "count",
    "mpi.protocol.eager": "count",
    "mpi.protocol.rendezvous": "count",
    "mpi.comm_us": "us",
    "mpi.copies": "count",
    "mpi.ranks": "count",
    "sim.engine_self_ms": "ms",
    "sim.host_us_per_msg": "us",
    "faults.retries": "count",
    "faults.timeouts": "count",
    "faults.gave_up": "count",
    "faults.degraded": "count",
    "faults.cell_plain_ms": "ms",
    "faults.cell_traced_ms": "ms",
    "trace_overhead_ratio": "ratio",
}


def host_info() -> Dict[str, Any]:
    """CPU count and model, and the interpreter and library versions."""
    import numpy
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model or "unknown",
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def strategy_classes() -> List[type]:
    """Every DES strategy class, for the ``core.plan`` spans."""
    from repro.models.strategies import STRATEGY_SPECS

    return [spec.impl_factory() for spec in STRATEGY_SPECS if spec.has_impl]


def timing_metrics(total, scale) -> Dict[str, float]:
    """Latency percentiles and rates, each time multiplied by
    ``scale(block)``."""
    import numpy as np

    latencies = [seconds * scale(block) for block, seconds in total.timings]
    busy = sum(latencies) + sum(seconds * scale(block)
                                for block, seconds in total.extra)
    p50, p90 = np.percentile(latencies, [50, 90])
    return {"op_p50_ms": float(p50) * 1e3, "op_p90_ms": float(p90) * 1e3,
            "ops_per_s": len(latencies) / busy,
            "work_per_s": total.work / busy}


def side_percentiles(total, scale) -> Dict[str, float]:
    """p50 and p90 of the side calls (advisor: atlas lookups), in us."""
    import numpy as np

    if not total.side:
        return {}
    p50, p90 = np.percentile(
        [seconds * scale(block) for block, seconds in total.side], [50, 90])
    return {"side_p50_us": float(p50) * 1e6, "side_p90_us": float(p90) * 1e6,
            "side_samples": len(total.side)}


def measure(make_workload, seed: int, seconds: float):
    """Untraced run: repeated set-up, then whole passes for ``seconds``.

    Each set-up starts from a fresh workload object after a garbage
    collection, so a previous set-up's inputs neither linger in
    ``peak_rss_mb`` nor get freed inside the next timed set-up.  Passes
    start until ``seconds`` of wall time have gone by since the first.
    Every time is scaled to the reference host speed by the probe
    blocks around it (:mod:`perfbench.hostspeed`); rates divide by the time
    spent inside the timed calls, so the oracle's cost and the probes
    are outside.  Returns ``(PassResult, metrics, info)``.
    """
    from perfbench.hostspeed import SpeedLog
    from perfbench.workloads import PassResult

    setups, setups_raw = [], []
    for _ in range(SETUP_REPS):
        wl = None
        gc.collect()
        around = SpeedLog()
        before = around.probe(SETUP_PROBE_S)
        t0 = perf_counter()
        wl = make_workload()
        wl.setup(seed)
        setups_raw.append(perf_counter() - t0)
        around.probe(SETUP_PROBE_S)
        setups.append(setups_raw[-1] * around.scale(before))
    speed = SpeedLog()
    total = PassResult()
    passes: List[PassResult] = []
    t_run = perf_counter()
    while not passes or perf_counter() - t_run < seconds:
        passes.append(wl.run_pass(wl.ops(len(passes)), speed=speed))
        total.merge(passes[-1])
    wall = perf_counter() - t_run
    # the block after the last operation
    speed.probe_share(total.timings[-1][1])
    scaled = speed.scale

    metrics = {"setup_s": statistics.median(setups),
               "peak_rss_mb": peak_rss_mb(),
               **timing_metrics(total, scaled)}
    info = {"setup_runs_s": setups, "setup_runs_raw_s": setups_raw,
            "passes": len(passes), **wl.report(),
            "pass_raw_s": [p.busy for p in passes],
            "latency_samples": len(total.timings),
            "timed_raw_s": total.busy, "wall_s": wall,
            "host_speed": speed.summary(),
            "raw_metrics": {
                "setup_s": statistics.median(setups_raw),
                **timing_metrics(total, lambda block: 1.0),
                **side_percentiles(total, lambda block: 1.0)},
            **side_percentiles(total, scaled)}
    return total, metrics, info


def layer_metrics(tracer, counts: Dict[str, int], ops: int, passes: int,
                  overhead: float) -> Dict[str, float]:
    """Per-layer metrics from the traced passes' spans and counts.

    Layer times cover the operations themselves; ``atlas.lookup`` is
    the advisor's side call, so its time comes from the side spans.
    """
    from perfbench.tracing import SETUP_OP, SIDE_OP

    total, own = tracer.times()
    _side_total, side_own = tracer.times(SIDE_OP)
    setup_total, _ = tracer.times(SETUP_OP)

    def per_op(seconds: float, scale: float) -> float:
        return seconds / ops * scale if ops else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    metrics = {name: float(counts.get(name, 0))
               for name, unit in PER_LAYER.items() if unit in ("count", "B")}
    metrics.update({
        "models.registry_us": per_op(total["models.registry"], 1e6),
        "models.fused_self_us": per_op(own["models.fused"], 1e6),
        "models.select_self_us": per_op(own["models.select"], 1e6),
        "paths.compile_us": per_op(total["paths.compile"], 1e6),
        "paths.stack_us": per_op(total["paths.stack"], 1e6),
        "paths.evaluate_us": per_op(total["paths.evaluate"], 1e6),
        "atlas.lookup_self_us": per_op(side_own["atlas.lookup"], 1e6),
        "atlas.hit_ratio": ratio(counts.get("atlas.hits", 0),
                                 counts.get("atlas.lookups", 0)),
        "atlas.fallbacks_hull": float(counts.get("atlas.fallbacks.hull", 0)),
        "atlas.fallbacks_margin": float(
            counts.get("atlas.fallbacks.margin", 0)),
        "atlas.agree_ratio": ratio(counts.get("atlas.agreed", 0),
                                   counts.get("atlas.interpolated", 0)),
        "atlas.build_self_s": per_op(own["atlas.build"], 1.0),
        "par.sweep_map_overhead_s": per_op(own["par.sweep_map"], 1.0),
        "sparse.build_s": setup_total["sparse.build"],
        "sparse.partition_s": setup_total["sparse.partition"],
        "core.plan_ms": per_op(total["core.plan"], 1e3),
        "mpi.job_run_self_ms": per_op(own["mpi.job_run"], 1e3),
        "mpi.transport_resolve_us": per_op(total["mpi.resolve"], 1e6),
        "mpi.comm_us": per_op(own["mpi.comm"], 1e6),
        "sim.engine_self_ms": per_op(own["sim.engine"], 1e3),
        "sim.host_us_per_msg": 1e6 * ratio(
            total["sim.engine"], counts.get("mpi.messages", 0) * passes),
        "faults.cell_plain_ms": per_op(total["faults.cell_plain"], 1e3),
        "faults.cell_traced_ms": per_op(total["faults.cell_traced"], 1e3),
        "trace_overhead_ratio": overhead,
    })
    return metrics


def trace(wl, seed: int, seconds: float, max_ops: Optional[int] = None):
    """Traced run over one fixed pass: pass 0, or its first ``max_ops``.

    Untraced and traced repetitions of the same pass alternate until
    ``seconds`` of wall time have gone by; the wrappers are in place
    only during the traced ones.  Times here are raw, not scaled to
    the reference host speed.  ``atlas.query_*`` are the percentiles
    of the atlas lookups in the untraced repetitions.  Returns ``(PassResult, metrics,
    info, tracer)``.
    """
    from perfbench.tracing import Tracer
    from perfbench.workloads import PassResult

    classes = strategy_classes()
    tracer = Tracer()
    tracer.install(classes)
    try:
        wl.setup(seed)
    finally:
        tracer.uninstall()
    ops = wl.ops(0)[:max_ops]
    overall = PassResult()
    plain_all = PassResult()
    plain_s: List[float] = []
    traced_s: List[float] = []
    counts: Optional[Counter] = None
    traced_ops = 0
    t_run = perf_counter()
    while not traced_s or perf_counter() - t_run < seconds:
        plain = wl.run_pass(ops)
        plain_s.append(plain.busy)
        plain_all.merge(plain)
        before = wl.layer_counts()
        tracer.counts.clear()
        tracer.install(classes)
        try:
            traced = wl.run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        traced_s.append(traced.busy)
        traced_ops += len(traced.timings)
        if counts is None:
            after = wl.layer_counts()
            counts = Counter(tracer.counts)
            counts.update({k: v - before.get(k, 0) for k, v in after.items()})
        overall.merge(plain)
        overall.merge(traced)
    overhead = statistics.median(traced_s) / statistics.median(plain_s)
    side = side_percentiles(plain_all, lambda block: 1.0)
    metrics = layer_metrics(tracer, counts, traced_ops, len(traced_s),
                            overhead)
    metrics["atlas.query_p50_us"] = side.get("side_p50_us", 0.0)
    metrics["atlas.query_p90_us"] = side.get("side_p90_us", 0.0)
    info = {"pass_ops": len(ops), "traced_passes": len(traced_s),
            "plain_pass_s": plain_s, "traced_pass_s": traced_s,
            "atlas_query_samples": side.get("side_samples", 0),
            "spans": len(tracer.spans), "untraced_names": tracer.missing,
            "nesting_errors": tracer.check_nesting()[:5], **wl.report()}
    return overall, metrics, info, tracer


def _use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src``, or stop."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no repro sources under {SRC}")
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:] = [ROOT, SRC] + [p for p in sys.path
                                 if os.path.abspath(p or ".") != here]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    _use_checkout_sources()
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    make_workload = WORKLOADS[args.workload]
    if args.trace:
        result, values, info, _tracer = trace(make_workload(), args.seed,
                                              args.seconds)
        units = PER_LAYER
    else:
        result, values, info = measure(make_workload, args.seed,
                                       args.seconds)
        units = END_TO_END
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "op": make_workload.op_unit, "work": make_workload.work_unit,
        "host": host_info(), "attempted": result.attempted,
        "failed": result.failed,
        "failed_ratio": result.failed / result.attempted,
        **info, "metrics": values,
    }
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
