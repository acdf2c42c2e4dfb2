"""``repro obs`` analysis: hotspots, report, diff attribution, flame."""

import json

import pytest

from repro.obs.analysis import (
    LedgerSummary,
    diff_ledgers,
    diff_perf_reports,
    flame_lines,
    hotspots,
    load_artifact,
    main as obs_main,
    render_diff,
    render_hotspots,
    render_report,
)
from repro.obs.ledger import RunLedger, read_ledger
from repro.obs.tracer import MemoryTracer


@pytest.fixture(scope="module")
def chaos_ledgers(tmp_path_factory):
    """Seed-0 and seed-1 smoke chaos ledgers (different fault plans)."""
    from repro.faults.chaos import main as chaos_main

    root = tmp_path_factory.mktemp("ledgers")
    paths = {}
    for seed in (0, 1):
        path = str(root / f"chaos-{seed}.jsonl")
        rc = chaos_main(["--smoke", "--seed", str(seed), "--ledger", path,
                        "-o", str(root / f"chaos-{seed}.json")])
        assert rc == 0
        paths[seed] = path
    return paths


class TestHotspots:
    def _tracer(self):
        t = MemoryTracer()
        t.span("rank0/phase", "direct", 0.0, 3e-6, cat="phase")
        t.span("rank1/phase", "direct", 0.0, 2e-6, cat="phase")
        t.span("rank0/phase", "redistribute", 3e-6, 4e-6, cat="phase")
        t.span("rank0", "send", 0.0, 1e-6)
        t.span("nic0", "xfer", 0.0, 9e-6)
        return t

    def test_aggregates_by_kind_and_name(self):
        rows = hotspots(self._tracer(), top=None)
        by = {(r["kind"], r["name"]): r for r in rows}
        assert by[("phase", "direct")]["count"] == 2
        assert by[("phase", "direct")]["total_s"] == pytest.approx(5e-6)
        assert by[("rank", "send")]["count"] == 1
        assert by[("nic", "xfer")]["total_s"] == pytest.approx(9e-6)

    def test_sorted_by_total_desc_and_top(self):
        rows = hotspots(self._tracer(), top=2)
        assert len(rows) == 2
        assert rows[0]["total_s"] >= rows[1]["total_s"]
        assert rows[0]["name"] == "xfer"

    def test_accepts_raw_span_list(self):
        t = self._tracer()
        assert hotspots(t.spans) == hotspots(t)

    def test_render_handles_empty(self):
        assert "no spans" in render_hotspots([])


class TestLoadArtifact:
    def test_ledger(self, chaos_ledgers):
        kind, records = load_artifact(chaos_ledgers[0])
        assert kind == "ledger"
        assert records[0]["event"] == "run_start"

    def test_perf_report(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"suite": "repro.perf", "schema": 4,
                                    "workloads": []}))
        kind, data = load_artifact(str(path))
        assert kind == "perf"

    def test_other_json_object_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"seed": 0}))
        with pytest.raises(ValueError, match="neither"):
            load_artifact(str(path))


class TestReport:
    def test_ledger_report_sections(self, chaos_ledgers):
        kind, records = load_artifact(chaos_ledgers[0])
        text = render_report(kind, records)
        assert "per-strategy breakdown" in text
        assert "per-phase breakdown" in text
        assert "histograms" in text
        assert "Standard (staged)" in text
        assert "redistribute" in text

    def test_perf_report_text(self):
        report = {"suite": "repro.perf", "schema": 4, "machine": "lassen",
                  "smoke": True,
                  "workloads": [{"name": "engine", "wall_s": 0.01,
                                 "wall_median_s": 0.012, "repeats": 3,
                                 "metrics": {}}]}
        text = render_report("perf", report)
        assert "engine" in text and "0.0100" in text


class TestDiffLedgers:
    def test_names_strategy_and_phase_of_top_mover(self, chaos_ledgers):
        """Acceptance: obs diff on two seeded chaos runs with different
        fault plans names the strategy and phase whose cost moved."""
        a = read_ledger(chaos_ledgers[0])
        b = read_ledger(chaos_ledgers[1])
        diff = diff_ledgers(a, b)
        assert diff["movers"], "seeds 0 and 1 must move at least one cell"
        top = diff["movers"][0]
        strategies = {s.label for s in
                      __import__("repro.core",
                                 fromlist=["all_strategies"]
                                 ).all_strategies()}
        assert top["strategy"] in strategies
        assert top["phase"], "top mover must carry a phase attribution"
        text = render_diff(diff)
        assert top["strategy"] in text
        assert top["phase"] in text

    def test_args_change_is_reported(self, chaos_ledgers):
        a = read_ledger(chaos_ledgers[0])
        b = read_ledger(chaos_ledgers[1])
        diff = diff_ledgers(a, b)
        assert diff["a"]["args"]["seed"] == 0
        assert diff["b"]["args"]["seed"] == 1
        assert "seed" in render_diff(diff)

    def test_identical_ledgers_have_no_movers(self, chaos_ledgers):
        a = read_ledger(chaos_ledgers[0])
        diff = diff_ledgers(a, a)
        assert diff["movers"] == []
        assert diff["outcome_flips"] == []
        assert diff["same_run_id"]


class TestDiffPerf:
    def _report(self, wall):
        return {"suite": "repro.perf", "schema": 4, "smoke": True,
                "workloads": [{"name": "engine", "wall_s": wall,
                               "wall_median_s": wall, "repeats": 3}]}

    def test_delta_table_and_gate(self):
        diff = diff_perf_reports(self._report(0.010), self._report(0.020),
                                 tolerance=0.25)
        assert diff["deltas"][0]["ratio"] == pytest.approx(2.0)
        assert diff["regressions"]  # 2x is beyond 25 %
        assert "REGRESSION" in render_diff(diff)

    def test_within_tolerance_passes(self):
        diff = diff_perf_reports(self._report(0.010), self._report(0.011),
                                 tolerance=0.25)
        assert diff["regressions"] == []


class TestFlame:
    def test_synthesized_from_phases(self, chaos_ledgers):
        lines = flame_lines(read_ledger(chaos_ledgers[0]))
        assert lines
        stack, count = lines[0].rsplit(" ", 1)
        assert int(count) > 0
        assert stack.startswith("chaos;")
        assert len(stack.split(";")) == 3  # cmd;strategy;phase

    def test_prefers_profile_stacks(self):
        from repro.obs.ledger import RunLedger

        ledger = RunLedger(None, "trace", {})
        ledger.event("cell", scenario="x", strategy="s", time_s=1.0,
                     phases={"direct": {"count": 1, "total_s": 1.0}})
        ledger.event("profile_stack", volatile=True,
                     stack="mod:main;mod:run", count=42)
        ledger.finish("ok")
        lines = flame_lines(ledger.records)
        assert lines == ["mod:main;mod:run 42"]


class TestObsCli:
    def test_report(self, chaos_ledgers, capsys):
        assert obs_main(["report", chaos_ledgers[0]]) == 0
        assert "per-strategy breakdown" in capsys.readouterr().out

    def test_diff_writes_structured_output(self, chaos_ledgers, tmp_path,
                                           capsys):
        out = str(tmp_path / "diff.json")
        rc = obs_main(["diff", chaos_ledgers[0], chaos_ledgers[1],
                       "-o", out])
        assert rc == 0
        structured = json.load(open(out))
        assert structured["kind"] == "ledger"
        assert structured["movers"]
        assert "phase" in capsys.readouterr().out

    def test_diff_perf_regression_exits_1(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = {"suite": "repro.perf", "schema": 4, "smoke": True,
                "workloads": [{"name": "engine", "wall_s": 0.01,
                               "wall_median_s": 0.01, "repeats": 1}]}
        slow = json.loads(json.dumps(base))
        slow["workloads"][0]["wall_median_s"] = 0.1
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(slow))
        assert obs_main(["diff", str(a), str(b)]) == 1
        capsys.readouterr()

    def test_flame_to_file(self, chaos_ledgers, tmp_path, capsys):
        out = str(tmp_path / "stacks.txt")
        assert obs_main(["flame", chaos_ledgers[0], "-o", out]) == 0
        assert open(out).read().splitlines()
        capsys.readouterr()

    def test_validate_ok_and_invalid(self, chaos_ledgers, tmp_path,
                                     capsys):
        assert obs_main(["validate", chaos_ledgers[0]]) == 0
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"event":"cell","scenario":0,"strategy":"s"}\n')
        assert obs_main(["validate", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "INVALID" in err

    def test_mixed_artifact_diff_rejected(self, chaos_ledgers, tmp_path):
        perf = tmp_path / "bench.json"
        perf.write_text(json.dumps({"suite": "repro.perf", "schema": 4,
                                    "workloads": []}))
        with pytest.raises(ValueError, match="cannot diff"):
            obs_main(["diff", chaos_ledgers[0], str(perf)])


class TestLedgerSummary:
    def test_indexes_last_run_of_concatenated_file(self, chaos_ledgers):
        records = read_ledger(chaos_ledgers[0]) \
            + read_ledger(chaos_ledgers[1])
        summary = LedgerSummary(records)
        assert summary.args["seed"] == 1

    def test_cell_time_decodes_floats(self, chaos_ledgers):
        summary = LedgerSummary(read_ledger(chaos_ledgers[0]))
        times = [summary.cell_time(k) for k in summary.cells]
        assert any(t is not None and t > 0 for t in times)


class TestRecoverySection:
    @pytest.fixture(scope="class")
    def recovery_ledger(self, tmp_path_factory):
        """A supervised proc-fault chaos run with one quarantined cell."""
        from repro.faults.chaos import main as chaos_main

        root = tmp_path_factory.mktemp("recovery")
        path = str(root / "chaos.jsonl")
        rc = chaos_main(["--smoke", "--seed", "0", "--jobs", "2",
                         "--proc-faults", "poison=1", "--max-retries", "1",
                         "--ledger", path,
                         "-o", str(root / "chaos.json")])
        assert rc == 0
        return path

    def test_summary_indexes_recovery_records(self, recovery_ledger):
        summary = LedgerSummary(read_ledger(recovery_ledger))
        assert summary.recovery is not None
        assert len(summary.quarantined) == 1
        assert summary.quarantined[0]["reason"] == "error"
        assert summary.chunk_retries  # the poison cell was retried

    def test_report_renders_the_recovery_section(self, recovery_ledger):
        text = render_report("ledger", read_ledger(recovery_ledger))
        assert "=== recovery ===" in text
        assert "QUARANTINED" in text
        assert "injected raise" in text

    def test_worker_lost_renders_span_or_suspect_count(self):
        from repro.par import SweepStats

        stats = SweepStats(tasks=4, executed=4, jobs=2, chunks=2)
        stats.respawns = 2
        stats.recovery("worker_lost", reason="crash", suspects=2, tasks=3)
        stats.recovery("worker_lost", reason="crash", lo=1, hi=1, tasks=1)
        ledger = RunLedger(None, "test", {"seed": 0})
        ledger.sweep(stats)
        ledger.finish("ok")
        text = render_report("ledger", ledger.records)
        assert "worker lost (crash): 2 suspect chunks" in text
        assert "worker lost (crash): tasks 1-1" in text

    def test_unfaulted_ledgers_have_no_recovery_section(self,
                                                        chaos_ledgers):
        records = read_ledger(chaos_ledgers[0])
        summary = LedgerSummary(records)
        assert summary.recovery is None
        assert summary.quarantined == []
        assert "=== recovery ===" not in render_report("ledger", records)
