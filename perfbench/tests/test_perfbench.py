"""The benchmark's own tests: determinism, seeding, span nesting, contract.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.  Traced runs here use a few operations of pass 0 so the suite
stays short.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run
from perfbench.tracing import SETUP_OP, SIDE_OP
from perfbench.workloads import WORKLOADS, derived_seed, sweep_grid

#: operations of pass 0 each traced test run uses
FEW_OPS = {"advisor": 60, "sweep": 1, "spmv_des": 6, "chaos": 1}

COUNT_UNITS = ("count", "B")


def traced(name, seed):
    wl = WORKLOADS[name]()
    # ``seconds=0``: exactly one untraced and one traced repetition
    result, metrics, info, tracer = run.trace(wl, seed, 0.0,
                                              max_ops=FEW_OPS[name])
    return wl, result, metrics, info, tracer


@pytest.fixture(scope="module")
def runs():
    """Two traced runs per workload with seed 3, one with seed 4."""
    out = {}
    for name in WORKLOADS:
        out[name] = [traced(name, 3), traced(name, 3), traced(name, 4)]
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_for_a_seed(runs, name):
    (_, r1, m1, _, _), (_, r2, m2, _, _), _ = runs[name]
    assert r1.failed == r2.failed == 0
    counts1 = {k: v for k, v in m1.items()
               if run.PER_LAYER[k] in COUNT_UNITS
               or (k.endswith("_ratio") and k != "trace_overhead_ratio")}
    counts2 = {k: m2[k] for k in counts1}
    assert counts1 == counts2
    assert any(counts1.values())


def test_layer_counts_land_on_their_workloads(runs):
    metric = {name: runs[name][0][2] for name in WORKLOADS}
    assert metric["advisor"]["paths.plans_compiled"] > 0
    assert metric["advisor"]["mpi.messages"] == 0
    assert metric["advisor"]["atlas.fallbacks_hull"] > 0
    assert metric["advisor"]["atlas.fallbacks_margin"] > 0
    assert 0 < metric["advisor"]["atlas.hit_ratio"] < 1
    assert metric["advisor"]["atlas.query_p90_us"] > 0
    assert metric["sweep"]["par.shards"] > 0
    assert metric["spmv_des"]["mpi.messages"] > 0
    assert metric["spmv_des"]["paths.plans_compiled"] == 0
    assert metric["chaos"]["faults.retries"] > 0
    assert metric["chaos"]["faults.cell_traced_ms"] > 0


@pytest.mark.parametrize("name", ["spmv_des", "chaos"])
def test_des_digest_repeats_for_a_seed(runs, name):
    (wl1, *_), (wl2, *_), _ = runs[name]
    assert wl1.report()["digest"]
    assert wl1.report()["digest"] == wl2.report()["digest"]


def test_seed_changes_inputs(runs):
    advisor = runs["advisor"]
    assert advisor[0][0].ops(0) == advisor[1][0].ops(0)
    assert advisor[0][0].ops(0) != advisor[2][0].ops(0)
    assert sweep_grid(3) != sweep_grid(4)
    spmv = runs["spmv_des"]
    assert spmv[0][0].ops(0) != spmv[2][0].ops(0)
    assert derived_seed(3, 1, 0) != derived_seed(4, 1, 0)
    assert (runs["chaos"][0][0].report()["digest"]
            != runs["chaos"][2][0].report()["digest"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_spans_nest_and_self_times_are_non_negative(runs, name):
    _, _, metrics, info, tracer = runs[name][0]
    assert tracer.spans
    assert tracer.check_nesting() == []
    assert info["untraced_names"] == []
    for op in (None, SETUP_OP, SIDE_OP):
        _total, own = tracer.times(op)
        assert all(seconds >= -1e-9 for seconds in own.values()), own
    assert all(value >= 0 for value in metrics.values())


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=120)


def test_cli_prints_the_result_line_last():
    out = _run_cli(run.ROOT, "--workload", "sweep", "--seed", "1",
                   "--seconds", "0.1", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_cli(tmp_path, "--workload", "advisor", "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""


def test_host_speed_scale_uses_the_blocks_around_a_time():
    from perfbench.hostspeed import REFERENCE_PROBE_S, SpeedLog

    log = SpeedLog()
    log.blocks = [REFERENCE_PROBE_S / 2, REFERENCE_PROBE_S * 1.5,
                  REFERENCE_PROBE_S * 4]
    # a time between blocks 0 and 1 is scaled by their mean
    assert log.scale(0) == 1.0
    assert log.scale(1) == pytest.approx(REFERENCE_PROBE_S / (2.75 * REFERENCE_PROBE_S))
    # the last block has no block after it
    assert log.scale(2) == 0.25
    assert log.probe(0.0) == 3 and log.probes == 1
