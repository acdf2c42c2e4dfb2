"""Supervised sweep execution: watchdog, retry, quarantine, resume."""

import argparse
import time

import pytest

from repro.faults import ProcFault, ProcFaultPlan
from repro.faults.plan import RetryPolicy
from repro.par import (
    DEFAULT_SWEEP_RETRY,
    ResultCache,
    SweepPolicy,
    SweepQuarantineError,
    SweepStats,
    read_journal,
    sweep_map,
)
from repro.par.cache import cache_key


# Module-level so process pools can pickle them by reference.
def _double(x):
    return 2 * x


def _key(task):
    return cache_key("supervised-test", task=task)


def _lenient(max_retries=2, task_timeout=None, seed=0):
    return SweepPolicy(task_timeout=task_timeout,
                       retry=RetryPolicy(timeout=30.0, backoff=0.0,
                                         backoff_cap=0.0,
                                         max_retries=max_retries),
                       seed=seed, strict=False)


class TestPolicy:
    def test_defaults(self):
        policy = SweepPolicy()
        assert policy.retry is DEFAULT_SWEEP_RETRY
        assert policy.strict
        assert policy.task_timeout is None

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_invalid_timeout_rejected(self, bad):
        with pytest.raises(ValueError):
            SweepPolicy(task_timeout=bad)

    def test_retry_must_be_a_retry_policy(self):
        with pytest.raises(ValueError):
            SweepPolicy(retry={"max_retries": 3})

    def test_backoff_doubles_then_caps(self):
        policy = SweepPolicy(retry=RetryPolicy(timeout=1.0, backoff=0.1,
                                               backoff_cap=0.3,
                                               max_retries=5))
        assert policy.backoff_delay(0) == pytest.approx(0.1)
        assert policy.backoff_delay(1) == pytest.approx(0.2)
        assert policy.backoff_delay(3) == pytest.approx(0.3)  # capped

    def test_jitter_is_seeded(self):
        policy = SweepPolicy(seed=7)
        a = policy.backoff_delay(1, policy.rng())
        b = policy.backoff_delay(1, policy.rng())
        assert a == b
        assert 0.5 * 0.1 <= a <= 1.5 * 0.1


class TestParity:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("chunk_size", [None, 1, 3])
    def test_supervised_matches_serial(self, jobs, chunk_size):
        tasks = list(range(10))
        out = sweep_map(_double, tasks, jobs=jobs, chunk_size=chunk_size,
                        policy=SweepPolicy())
        assert out == [_double(t) for t in tasks]

    def test_empty_sweep(self):
        assert sweep_map(_double, [], policy=SweepPolicy()) == []


class TestValidation:
    def test_resume_requires_cache_and_journal(self, tmp_path):
        with pytest.raises(ValueError, match="resume requires"):
            sweep_map(_double, [1], resume=True)
        with pytest.raises(ValueError, match="resume requires"):
            sweep_map(_double, [1], resume=True,
                      journal_dir=str(tmp_path))

    def test_cache_requires_key_fn(self, tmp_path):
        with pytest.raises(ValueError, match="key_fn"):
            sweep_map(_double, [1], policy=SweepPolicy(),
                      cache=ResultCache(directory=str(tmp_path)))


class TestInjectedRaise:
    def test_transient_raise_clears_on_retry(self):
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="raise", index=3, max_runs=1),))
        stats = SweepStats()
        out = sweep_map(_double, list(range(6)), jobs=2, chunk_size=2,
                        policy=_lenient(), stats=stats, proc_faults=plan)
        assert out == [_double(t) for t in range(6)]
        assert stats.quarantined == []
        assert stats.retried >= 1
        kinds = {ev["kind"] for ev in stats.recovery_events}
        assert "chunk_retry" in kinds

    def test_poison_is_quarantined_not_fatal(self):
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="raise", index=2, max_runs=None),))
        stats = SweepStats()
        out = sweep_map(_double, list(range(5)), jobs=2, chunk_size=2,
                        policy=_lenient(max_retries=1), stats=stats,
                        proc_faults=plan)
        assert out[2] is None
        assert [out[i] for i in (0, 1, 3, 4)] == [0, 2, 6, 8]
        assert len(stats.quarantined) == 1
        record = stats.quarantined[0]
        assert record["index"] == 2
        assert "injected raise" in record["error"]
        assert any(ev["kind"] == "task_quarantined"
                   for ev in stats.recovery_events)

    def test_strict_mode_re_raises_the_manifest(self):
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="raise", index=1, max_runs=None),))
        policy = SweepPolicy(retry=RetryPolicy(timeout=1.0, backoff=0.0,
                                               backoff_cap=0.0,
                                               max_retries=1), strict=True)
        with pytest.raises(SweepQuarantineError) as excinfo:
            sweep_map(_double, list(range(4)), jobs=2, chunk_size=1,
                      policy=policy, proc_faults=plan)
        assert [q["index"] for q in excinfo.value.quarantined] == [1]

    def test_real_exceptions_quarantine_with_type_and_message(self):
        stats = SweepStats()
        out = sweep_map(_bomb, list(range(4)), jobs=1,
                        policy=_lenient(max_retries=0), stats=stats)
        assert out == [0, None, 4, 6]
        assert stats.quarantined[0]["error"] == \
            "ValueError: task 1 exploded"


def _slow_first(x):
    # task 0 stays running long after a pool-mate's crash
    if x == 0:
        time.sleep(1.0)
    return 2 * x


def _bomb(x):
    if x == 1:
        raise ValueError("task 1 exploded")
    return 2 * x


class TestCrashAndHang:
    def test_transient_crash_respawns_and_completes(self):
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="crash", index=4, max_runs=1),))
        stats = SweepStats()
        out = sweep_map(_double, list(range(8)), jobs=2, chunk_size=2,
                        policy=_lenient(), stats=stats, proc_faults=plan)
        assert out == [_double(t) for t in range(8)]
        assert stats.respawns >= 1
        assert any(ev["kind"] == "worker_lost" and ev["reason"] == "crash"
                   for ev in stats.recovery_events)
        assert stats.quarantined == []

    def test_one_crash_logs_one_worker_lost(self):
        # the crash breaks the pool while the slow, innocent chunk is
        # still in flight: one loss for the break, naming both suspects
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="crash", index=1, max_runs=1),))
        stats = SweepStats()
        out = sweep_map(_slow_first, [0, 1], jobs=2, chunk_size=1,
                        policy=_lenient(), stats=stats, proc_faults=plan)
        assert out == [0, 2]
        lost = [ev for ev in stats.recovery_events
                if ev["kind"] == "worker_lost" and ev["reason"] == "crash"]
        assert stats.respawns == len(lost) == 1
        assert lost[0]["suspects"] == 2 and "lo" not in lost[0]
        assert stats.quarantined == []

    def test_transient_hang_is_caught_by_the_watchdog(self):
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="hang", index=1, max_runs=1),),
            hang_seconds=30.0)
        stats = SweepStats()
        out = sweep_map(_double, list(range(4)), jobs=2, chunk_size=1,
                        policy=_lenient(task_timeout=0.2), stats=stats,
                        proc_faults=plan)
        assert out == [_double(t) for t in range(4)]
        assert stats.respawns >= 1
        assert any(ev["kind"] == "worker_lost" and ev["reason"] == "hang"
                   for ev in stats.recovery_events)

    def test_quarantine_set_is_independent_of_geometry(self):
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="raise", index=2, max_runs=None),
            ProcFault(kind="raise", index=5, max_runs=None),
            ProcFault(kind="raise", index=0, max_runs=1),))
        quarantines = []
        for jobs, chunk_size in ((1, None), (2, 2), (3, 1)):
            stats = SweepStats()
            sweep_map(_double, list(range(7)), jobs=jobs,
                      chunk_size=chunk_size,
                      policy=_lenient(max_retries=1), stats=stats,
                      proc_faults=plan)
            quarantines.append(
                sorted(q["index"] for q in stats.quarantined))
        assert quarantines == [[2, 5]] * 3 == \
            [list(plan.poison_indices())] * 3


class TestCheckpointResume:
    def test_completed_shards_checkpoint_incrementally(self, tmp_path):
        cache = ResultCache(directory=str(tmp_path))
        stats = SweepStats()
        out = sweep_map(_double, list(range(6)), jobs=2, chunk_size=2,
                        cache=cache, key_fn=_key, policy=SweepPolicy(),
                        journal_dir=str(tmp_path), stats=stats)
        assert out == [_double(t) for t in range(6)]
        journals = list(tmp_path.glob("sweep-*.jsonl"))
        assert len(journals) == 1
        records = read_journal(str(journals[0]))
        done = sorted(r["index"] for r in records
                      if r["kind"] == "shard_done")
        assert done == list(range(6))
        assert records[-1] == {"kind": "sweep_end", "completed": 6,
                               "quarantined": []}
        # every journaled shard is restorable from the cache
        for task in range(6):
            hit, value = cache.lookup(_key(task))
            assert hit and value == _double(task)

    def test_resume_restores_and_skips_completed_shards(self, tmp_path):
        tasks = list(range(6))
        kwargs = dict(cache=ResultCache(directory=str(tmp_path)),
                      key_fn=_key, journal_dir=str(tmp_path))
        first = sweep_map(_double, tasks, jobs=2, policy=SweepPolicy(),
                          **kwargs)
        stats = SweepStats()
        kwargs["cache"] = ResultCache(directory=str(tmp_path))
        again = sweep_map(_double, tasks, jobs=2, resume=True,
                          stats=stats, **kwargs)
        assert again == first
        assert stats.resumed == len(tasks)
        assert stats.executed == 0
        assert any(ev["kind"] == "sweep_resume"
                   for ev in stats.recovery_events)

    def test_interrupted_serial_sweep_keeps_completed_shards(self,
                                                             tmp_path):
        tasks = list(range(6))
        evaluated = []
        interrupt = {3}

        def interrupt_at_3(x):
            if x in interrupt:
                raise KeyboardInterrupt
            evaluated.append(x)
            return _double(x)

        kwargs = dict(key_fn=_key, journal_dir=str(tmp_path))
        with pytest.raises(KeyboardInterrupt):
            sweep_map(interrupt_at_3, tasks, jobs=1, policy=SweepPolicy(),
                      cache=ResultCache(directory=str(tmp_path)), **kwargs)
        assert evaluated == [0, 1, 2]
        (journal,) = tmp_path.glob("sweep-*.jsonl")
        done = [r["index"] for r in read_journal(str(journal))
                if r["kind"] == "shard_done"]
        assert done == [0, 1, 2]
        disk = ResultCache(directory=str(tmp_path))
        assert [disk.lookup(_key(t)) for t in range(3)] == [
            (True, _double(t)) for t in range(3)]

        interrupt.clear()
        stats = SweepStats()
        out = sweep_map(interrupt_at_3, tasks, jobs=1, resume=True,
                        stats=stats,
                        cache=ResultCache(directory=str(tmp_path)),
                        **kwargs)
        assert out == [_double(t) for t in tasks]
        assert evaluated[3:] == [3, 4, 5]
        assert stats.executed == 3 and stats.resumed == 3

    def test_resume_journals_an_orphaned_cache_entry(self, tmp_path):
        # a kill between shard 3's cache put and its journal line leaves
        # a cached value the journal lacks
        import json

        tasks = list(range(6))
        kwargs = dict(key_fn=_key, journal_dir=str(tmp_path))
        sweep_map(_double, tasks, jobs=1, policy=SweepPolicy(),
                  cache=ResultCache(directory=str(tmp_path)), **kwargs)
        (journal,) = tmp_path.glob("sweep-*.jsonl")
        kept = [line for line in journal.read_text().splitlines()
                if json.loads(line)["kind"] != "sweep_end"
                and json.loads(line).get("index") != 3]
        journal.write_text("\n".join(kept) + "\n")
        stats = SweepStats()
        out = sweep_map(_double, tasks, jobs=1, resume=True, stats=stats,
                        cache=ResultCache(directory=str(tmp_path)),
                        **kwargs)
        assert out == [_double(t) for t in tasks]
        assert stats.executed == 0
        done = {r["index"] for r in read_journal(str(journal))
                if r["kind"] == "shard_done"}
        assert done == set(tasks)

    def test_quarantines_carry_cache_keys(self, tmp_path):
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="raise", index=1, max_runs=None),))
        stats = SweepStats()
        sweep_map(_double, list(range(3)), jobs=1,
                  cache=ResultCache(directory=str(tmp_path)), key_fn=_key,
                  policy=_lenient(max_retries=0), stats=stats,
                  proc_faults=plan, journal_dir=str(tmp_path))
        assert stats.quarantined[0]["key"] == _key(1)
        journals = list(tmp_path.glob("sweep-*.jsonl"))
        records = read_journal(str(journals[0]))
        quarantine = [r for r in records
                      if r["kind"] == "task_quarantined"]
        assert quarantine and quarantine[0]["index"] == 1
        end = records[-1]
        assert end == {"kind": "sweep_end", "completed": 2,
                       "quarantined": [1]}


class TestSerialSupervised:
    def test_serial_retry_then_success(self):
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="raise", index=0, max_runs=2),))
        stats = SweepStats()
        out = sweep_map(_double, [5, 6], jobs=1,
                        policy=_lenient(max_retries=3), stats=stats,
                        proc_faults=plan)
        assert out == [10, 12]
        assert stats.retried == 2

    def test_serial_quarantine(self):
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="raise", index=0, max_runs=None),))
        stats = SweepStats()
        out = sweep_map(_double, [5, 6], jobs=1,
                        policy=_lenient(max_retries=1), stats=stats,
                        proc_faults=plan)
        assert out == [None, 12]
        assert [q["index"] for q in stats.quarantined] == [0]


class TestStatsRecovery:
    def test_to_dict_has_a_recovery_section(self):
        stats = SweepStats()
        stats.retried = 2
        stats.respawns = 1
        stats.quarantined.append({"index": 3, "key": None,
                                  "reason": "error", "error": "boom"})
        stats.recovery("worker_lost", reason="crash", lo=0, hi=1, tasks=2)
        payload = stats.to_dict()["recovery"]
        assert payload["retried"] == 2
        assert payload["respawns"] == 1
        assert payload["quarantined"][0]["index"] == 3
        assert payload["events"][0]["kind"] == "worker_lost"

    def test_straggler_threshold_uses_the_true_median(self):
        # walls [2, 2, 4, 7]: true median 3 flags the 7 s chunk at
        # factor 2; the old upper-median (4) would have required 8 s.
        stats = SweepStats()
        for chunk, wall in enumerate((2.0, 2.0, 4.0, 7.0)):
            stats.worker_events.append(
                {"chunk": chunk, "lo": chunk, "hi": chunk, "tasks": 1,
                 "done": chunk + 1, "total": 4, "wall_s": wall, "pid": 1})
        assert [ev["chunk"] for ev in stats.stragglers()] == [3]


class TestCliOpts:
    def _ns(self, **overrides):
        ns = argparse.Namespace(max_retries=None, task_timeout=None,
                                resume=False)
        for name, value in overrides.items():
            setattr(ns, name, value)
        return ns

    def test_no_flags_means_unsupervised(self):
        from repro.par.cliopts import supervision_from_args

        assert supervision_from_args(self._ns(), None) == \
            (None, None, False)

    def test_any_flag_opts_in(self, tmp_path):
        from repro.par.cliopts import supervision_from_args

        cache = ResultCache(directory=str(tmp_path))
        policy, journal_dir, resume = supervision_from_args(
            self._ns(max_retries=5, resume=True), cache)
        assert policy.retry.max_retries == 5
        assert policy.retry.backoff == DEFAULT_SWEEP_RETRY.backoff
        assert journal_dir == cache.directory
        assert resume

    def test_parser_round_trip(self):
        from repro.par.cliopts import (
            add_supervision_args,
            supervision_from_args,
        )

        parser = argparse.ArgumentParser()
        add_supervision_args(parser)
        ns = parser.parse_args(["--task-timeout", "2.5"])
        policy, journal_dir, resume = supervision_from_args(ns, None)
        assert policy.task_timeout == 2.5
        assert journal_dir is None and not resume


def _slow_double(x):
    if x == 2:
        import time

        time.sleep(0.1)
    return 2 * x


class TestBrokenPoolAtSubmit:
    def test_crash_during_retry_backoff_respawns(self):
        # chunk [0, 1] comes back first with task 0's injected raise;
        # its retry backoff sleeps while the other worker crashes on
        # task 3, so the retry meets a pool that is already broken
        plan = ProcFaultPlan(faults=(
            ProcFault(kind="raise", index=0, max_runs=1),
            ProcFault(kind="crash", index=3, max_runs=1)))
        policy = SweepPolicy(retry=RetryPolicy(timeout=30.0, backoff=0.4,
                                               backoff_cap=0.4,
                                               max_retries=2),
                             strict=False)
        stats = SweepStats()
        out = sweep_map(_slow_double, [0, 1, 2, 3], jobs=2, chunk_size=2,
                        policy=policy, stats=stats, proc_faults=plan)
        assert out == [0, 2, 4, 6]
        assert stats.quarantined == []
        assert stats.respawns >= 1
