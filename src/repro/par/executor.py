"""Parallel sweep executor: one deterministic, checkpointing sweep path.

Every expensive entry point in the repro (chaos sweeps, figure grids,
the SpMV suite, scenario model sweeps, atlas builds, the perf suite) is
a loop over **independent, pure** shard evaluations.  :func:`sweep_map`
is the one fan-out primitive they all share, and every call takes the
same five steps:

1. validate the arguments and split the tasks into cache hits and
   misses — pass a :class:`~repro.par.cache.ResultCache` plus a
   ``key_fn`` and hits skip evaluation entirely;
2. open a :class:`~repro.par.journal.SweepJournal` when ``journal_dir``
   is given;
3. run the misses: in this process when ``jobs == 1`` or at most one
   misses (no pool, no pickling), else over one supervised process
   pool of at most ``min(jobs, runnable chunks)`` workers;
4. checkpoint each shard as it is gathered — in this process as soon
   as its task returns, from a pool with its chunk — with a cache
   ``put`` plus a journal line, so a killed sweep loses no gathered
   shard and can ``resume=True`` to re-execute only the missing ones;
5. fill in the quarantine manifest.

Both bodies of step 3 run one worker body (per-task outcomes) and hand
every outcome to the one place where it is checkpointed or, if it
failed, attributed.  Common properties:

* **Deterministic sharding** — tasks are split into *contiguous* chunks
  by :func:`shard_tasks` (a pure function of ``(n, jobs, chunk_size)``),
  so the work distribution never depends on scheduler timing.
* **Ordered gather** — results are re-assembled by task index, so the
  output list is **bit-identical** to the serial order regardless of
  worker count or completion order.
* **Spawn-safe** — the shard function must be a module-level callable
  and every task spec picklable; the pool start method defaults to the
  cheapest available (``fork`` on POSIX) but honours
  ``$REPRO_START_METHOD`` and the ``start_method=`` argument, and the
  test suite pins ``spawn`` compatibility.

The arguments decide one thing only: what a failure does.

* **Fail fast** (none of ``policy`` / ``journal_dir`` / ``resume`` /
  ``proc_faults`` given): the first task exception is re-raised
  unchanged, a lost worker raises its ``BrokenExecutor``, the pool is
  killed, and nothing is retried.
* **Supervised** (any of them given, :class:`SweepPolicy` defaults
  otherwise):

  - a **watchdog** enforces per-chunk wall-clock deadlines
    (``task_timeout`` seconds per task); a chunk past its deadline is
    declared hung, the pool is killed and respawned, and every innocent
    in-flight chunk is resubmitted without penalty;
  - a **lost worker** (``BrokenProcessPool`` — e.g. a child that
    ``os._exit``'s) likewise respawns the pool; the chunks that were
    in flight are re-run one at a time in *isolation* so guilt is
    attributed exactly (an innocent chunk that merely shared the pool
    is never penalized);
  - a guilty multi-task chunk is **bisected** — split in half and
    re-run — until the poison task is isolated;
  - a guilty single task is retried under the plan's bounded, seeded
    exponential-backoff :class:`~repro.faults.plan.RetryPolicy` and
    finally **quarantined**: recorded (index, cache key, reason,
    error) in :attr:`SweepStats.quarantined` and, in strict mode,
    re-raised at the end as :class:`SweepQuarantineError` — the sweep
    always completes with an explicit completeness manifest.

  Deterministic *process-level* fault injection for all of the above
  lives in :mod:`repro.faults.procfault` (crash / hang / raise on
  seeded schedules), driven by ``python -m repro chaos --proc-faults``.

Worker count resolution (:func:`resolve_jobs`): explicit ``jobs``
argument, else ``$REPRO_JOBS``, else 1.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import statistics
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.faults.plan import RetryPolicy

#: default straggler threshold: a chunk this many times slower than the
#: median chunk of its sweep is flagged (see :meth:`SweepStats.stragglers`)
STRAGGLER_FACTOR = 2.0

#: environment variable supplying the default worker count
ENV_JOBS = "REPRO_JOBS"

#: environment variable overriding the multiprocessing start method
ENV_START_METHOD = "REPRO_START_METHOD"

#: supervisor retry defaults — wall-clock scale (the simulated
#: transport's :class:`RetryPolicy` defaults are virtual-time scale)
DEFAULT_SWEEP_RETRY = RetryPolicy(timeout=30.0, backoff=0.05,
                                  backoff_cap=1.0, max_retries=2)

#: extra wall seconds granted on top of a chunk's deadline, per start
#: method — spawn/forkserver workers re-import the package before the
#: first task runs, which must not read as a hang
POOL_SPINUP_GRACE = {"fork": 0.25}
DEFAULT_SPINUP_GRACE = 2.0


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: argument > ``$REPRO_JOBS`` > 1."""
    from_env = False
    if jobs is None or jobs == 0:
        env = os.environ.get(ENV_JOBS, "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ValueError(
                f"${ENV_JOBS} must be a positive integer, got {env!r}"
            ) from None
        from_env = True
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        if from_env:
            # Name the source: "repro chaos" never passed this value,
            # the environment did, and the fix is $REPRO_JOBS.
            raise ValueError(
                f"${ENV_JOBS} must be a positive integer, got {jobs!r}")
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    return jobs


def default_start_method() -> str:
    """Cheapest safe start method (env override > fork > spawn)."""
    env = os.environ.get(ENV_START_METHOD, "").strip()
    if env:
        return env
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def shard_tasks(n: int, jobs: int,
                chunk_size: Optional[int] = None) -> List[Tuple[int, int]]:
    """Deterministic contiguous ``[start, stop)`` chunks covering ``n``.

    The default chunk size targets ~4 chunks per worker — small enough
    to balance uneven shard costs, large enough to amortize pickling —
    and depends only on ``(n, jobs, chunk_size)``, never on timing.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n == 0:
        return []
    if chunk_size is None:
        chunk_size = max(1, -(-n // (4 * max(jobs, 1))))
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [(lo, min(lo + chunk_size, n)) for lo in range(0, n, chunk_size)]


@dataclass(frozen=True)
class SweepPolicy:
    """Supervision contract for one :func:`sweep_map` call.

    ``task_timeout`` is the per-task wall-clock budget: a chunk of
    ``k`` tasks is declared hung ``task_timeout * k`` (plus a start-
    method spin-up grace) seconds after submission, its workers are
    killed and the chunk is re-run.  ``None`` disables the watchdog
    (lost workers are still detected and respawned).

    ``retry`` reuses the fault plan's
    :class:`~repro.faults.plan.RetryPolicy` semantics for *resubmission*:
    retry ``k`` of a guilty single task waits
    ``min(backoff * 2**k, backoff_cap)`` seconds (jittered by a stream
    seeded from ``seed``), and after ``max_retries`` retries the task is
    quarantined.  ``strict`` re-raises quarantined tasks at the end of
    the sweep as :class:`SweepQuarantineError`; non-strict sweeps leave
    ``None`` at the quarantined indices and report them via
    :attr:`SweepStats.quarantined`.
    """

    task_timeout: Optional[float] = None
    retry: RetryPolicy = DEFAULT_SWEEP_RETRY
    seed: int = 0
    strict: bool = True

    def __post_init__(self) -> None:
        if self.task_timeout is not None and not self.task_timeout > 0:
            raise ValueError(
                f"SweepPolicy.task_timeout must be > 0 or None, got "
                f"{self.task_timeout!r}")
        if not isinstance(self.retry, RetryPolicy):
            raise ValueError(
                f"SweepPolicy.retry must be a RetryPolicy, got "
                f"{self.retry!r}")

    def backoff_delay(self, attempt: int,
                      rng: Optional[np.random.Generator] = None) -> float:
        """Seconds to wait before retry ``attempt`` (0-based)."""
        delay = min(self.retry.backoff * (2 ** attempt),
                    self.retry.backoff_cap)
        if rng is not None and delay > 0.0:
            delay *= 0.5 + rng.random()  # seeded jitter in [0.5, 1.5)
        return delay

    def rng(self) -> np.random.Generator:
        """Backoff-jitter stream (``0xFB`` prefix: disjoint from the
        fault streams' ``0xFA`` and the bare noise streams)."""
        return np.random.default_rng(np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(0xFB,)))


class SweepQuarantineError(RuntimeError):
    """A strict supervised sweep finished with quarantined tasks.

    ``quarantined`` holds the completeness manifest entries
    (``{"index", "key", "reason", "error"}``) so callers can still see
    exactly which shards are missing and why.
    """

    def __init__(self, quarantined: Sequence[Dict[str, Any]]) -> None:
        self.quarantined = [dict(q) for q in quarantined]
        head = "; ".join(
            f"task {q['index']} [{q['reason']}] {q['error']}"
            for q in self.quarantined[:4])
        more = (f" (+{len(self.quarantined) - 4} more)"
                if len(self.quarantined) > 4 else "")
        super().__init__(
            f"{len(self.quarantined)} task(s) quarantined after "
            f"exhausting retries: {head}{more}")


@dataclass
class SweepStats:
    """Observability of one :func:`sweep_map` call (filled in place).

    ``worker_events`` is the sweep's **fleet telemetry**: one
    heartbeat/progress record per gathered chunk —
    ``{"chunk", "lo", "hi", "tasks", "done", "total", "wall_s", "pid"}``
    — where ``done``/``total`` count chunks gathered so far (progress),
    ``wall_s`` is the chunk's measured in-worker wall clock and ``pid``
    the worker that ran it.  Task counts are deterministic; wall
    seconds and pids are not (the run ledger records them inside its
    non-deterministic envelope).

    Supervised sweeps additionally fill the **recovery telemetry**:
    ``retried`` / ``respawns`` / ``resumed`` counters, the
    ``quarantined`` completeness manifest, and ``recovery_events`` —
    one record per supervision action (``worker_lost``,
    ``chunk_retry``, ``task_quarantined``, ``sweep_resume``) that the
    run ledger forwards (quarantines deterministically, the rest as
    volatile execution-shape facts).
    """

    tasks: int = 0          # total shards requested
    executed: int = 0       # shards actually evaluated (cache misses)
    cache_hits: int = 0     # shards served from the cache
    jobs: int = 0           # resolved worker count
    chunks: int = 0         # work units submitted to the pool (0 = serial)
    retried: int = 0        # chunk/task resubmissions (supervised only)
    respawns: int = 0       # pool respawns after lost/hung workers
    resumed: int = 0        # shards restored from a prior journaled run
    obs_payloads: List[Any] = field(default_factory=list)
    worker_events: List[Dict[str, Any]] = field(default_factory=list)
    quarantined: List[Dict[str, Any]] = field(default_factory=list)
    recovery_events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of shards served from the cache (0.0 when empty)."""
        return self.cache_hits / self.tasks if self.tasks else 0.0

    def recovery(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Append (and return) one recovery-telemetry record."""
        record = {"kind": kind, **fields}
        self.recovery_events.append(record)
        return record

    def stragglers(self, factor: float = STRAGGLER_FACTOR
                   ) -> List[Dict[str, Any]]:
        """Chunks at least ``factor`` x slower than the median chunk.

        Straggler detection needs a population to compare against:
        fewer than three timed chunks yields no flags.  The returned
        records are the matching :attr:`worker_events` entries.
        """
        if factor <= 1.0:
            raise ValueError(f"factor must be > 1, got {factor}")
        walls = [ev["wall_s"] for ev in self.worker_events]
        if len(walls) < 3:
            return []
        # statistics.median averages the middle pair for even-length
        # sweeps; indexing the sorted list would take the upper middle
        # and bias the threshold high.
        median = statistics.median(walls)
        if median <= 0.0:
            return []
        return [ev for ev in self.worker_events
                if ev["wall_s"] >= factor * median]

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (fleet details under ``"fleet"``,
        supervision details under ``"recovery"``)."""
        return {
            "tasks": self.tasks,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "fleet": {
                "jobs": self.jobs,
                "chunks": self.chunks,
                "heartbeats": [dict(ev) for ev in self.worker_events],
                "stragglers": [ev["chunk"] for ev in self.stragglers()],
            },
            "recovery": {
                "retried": self.retried,
                "respawns": self.respawns,
                "resumed": self.resumed,
                "quarantined": [dict(q) for q in self.quarantined],
                "events": [dict(ev) for ev in self.recovery_events],
            },
        }


#: one task's ``(index, ok, value, error)``
_Outcome = Tuple[int, bool, Any, Optional[str]]


def _run_chunk_guarded(fn: Callable[[Any], Any],
                       chunk: List[Tuple[int, Any]],
                       faults: Any,
                       runs: Dict[int, int],
                       fail_fast: bool,
                       emit: Optional[Callable[[_Outcome], None]] = None
                       ) -> Tuple[List[_Outcome], Dict[str, Any]]:
    """Worker body: evaluate one contiguous chunk of (index, task).

    Each task yields ``(index, ok, value, error)`` — a task that raises
    is *recorded*, not propagated, so one poison task cannot discard its
    chunk-mates' results; ``error`` reads ``"Type: message"``.  With
    ``fail_fast`` the first exception propagates unchanged instead (out
    of a pool, ``concurrent.futures`` chains the worker traceback as its
    ``__cause__``).  ``faults`` (a
    :class:`~repro.faults.procfault.ProcFaultPlan` or ``None``) injects
    process-level failures first: ``crash`` exits the process without
    cleanup, ``hang`` sleeps past any reasonable deadline, ``raise``
    records an injected error.  ``runs`` carries each task's 1-based
    evaluation count so transient schedules can clear on retry.
    ``emit`` (in-process runs only) receives each outcome as soon as it
    is produced, instead of the returned list, so the caller can
    checkpoint shard by shard.

    Returns the outcomes plus the chunk's telemetry (task span, measured
    wall seconds, pid) for :attr:`SweepStats.worker_events`.
    """
    t0 = time.perf_counter()
    outcomes: List[_Outcome] = []
    record = outcomes.append if emit is None else emit
    for index, task in chunk:
        if faults is not None:
            action = faults.action(index, runs[index])
            if action == "crash":
                os._exit(faults.exit_code)
            elif action == "hang":
                time.sleep(faults.hang_seconds)
            elif action == "raise":
                record((index, False, None,
                        f"ProcFaultError: injected raise (task {index})"))
                continue
        try:
            value = fn(task)
        except BaseException as exc:  # noqa: BLE001 — quarantine wants all
            if fail_fast or isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            record((index, False, None, f"{type(exc).__name__}: {exc}"))
        else:
            record((index, True, value, None))
    telemetry = {
        "lo": chunk[0][0],
        "hi": chunk[-1][0],
        "tasks": len(chunk),
        "wall_s": time.perf_counter() - t0,
        "pid": os.getpid(),
    }
    return outcomes, telemetry


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool's workers and reap them (hung workers never
    exit on their own, so a plain shutdown would block forever).

    The pool's manager thread also reaps workers and can win that race,
    so wait for it too: only then are the exit statuses recorded, and no
    thread of the dead pool is still running when the next pool forks.
    """
    procs = list(getattr(pool, "_processes", {}).values())
    manager = getattr(pool, "_executor_manager_thread", None)
    for proc in procs:
        try:
            proc.terminate()
        except (OSError, ValueError):  # pragma: no cover — racing exit
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except TypeError:  # pragma: no cover — cancel_futures needs 3.9
        pool.shutdown(wait=False)
    for proc in procs:
        try:
            proc.join(timeout=5.0)
        except (OSError, ValueError, AssertionError):  # pragma: no cover
            pass
    if manager is not None:
        manager.join(timeout=5.0)


class _Supervisor:
    """Runs one sweep's cache misses (see :func:`sweep_map`).

    :meth:`run_serial` evaluates the chunk queue in-process and
    :meth:`run_pool` over a process pool; both run the same worker body
    and hand every outcome to :meth:`_attribute`, which checkpoints a
    completed task and penalizes a failed one under ``policy``.  With
    ``fail_fast`` nothing is penalized: the worker body re-raises the
    task's exception (out of ``future.result()`` when pooled) and a lost
    worker raises where it is detected; :meth:`run_pool` kills the pool
    on the way out.

    Failure attribution protocol (pool): when the pool breaks (a worker
    died) every in-flight chunk is *suspect* — guilt is unknowable
    pool-wide — so suspects re-run one at a time in isolation.  A chunk
    that fails alone is guilty: bisected while it holds more than one
    task, retried under the policy's backoff once it is a single task,
    and quarantined when retries exhaust.  A chunk that succeeds alone
    was an innocent bystander and is never penalized, which keeps the
    quarantine set a pure function of the fault schedule (not of the
    worker count or chunk geometry).
    """

    def __init__(self, fn: Callable[[Any], Any],
                 chunks: List[List[Tuple[int, Any]]], jobs: int,
                 policy: SweepPolicy, fail_fast: bool,
                 stats: SweepStats, proc_faults: Any,
                 checkpoint: Callable[[int, Any], None]) -> None:
        self.fn = fn
        self.jobs = jobs
        self.policy = policy
        self.fail_fast = fail_fast
        self.stats = stats
        self.faults = proc_faults
        self.checkpoint = checkpoint
        self.rng: Optional[np.random.Generator] = None  # on first retry
        self.queue: collections.deque = collections.deque(chunks)
        self.suspects: collections.deque = collections.deque()
        self.inflight: Dict[Any, List[Tuple[int, Any]]] = {}
        self.deadlines: Dict[Any, float] = {}
        self.runs: Dict[int, int] = {}
        self.attempts: Dict[int, int] = {}
        self.gathered = 0
        self.pool: Optional[ProcessPoolExecutor] = None
        self.workers = 0
        self.start_method = ""
        self.grace = 0.0

    def _next_runs(self, chunk: List[Tuple[int, Any]]) -> Dict[int, int]:
        """Each task's 1-based evaluation count for the next run."""
        return {index: self.runs.get(index, 0) + 1 for index, _ in chunk}

    # -- serial loop --------------------------------------------------------
    def run_serial(self) -> None:
        """Evaluate the queue in this process: the misses as one chunk,
        in task order, then any retries, one task each.

        Each outcome is attributed as soon as its task returns, so every
        completed shard is checkpointed before the next one starts.
        Raised exceptions (and injected ``raise`` faults) are retried
        and quarantined exactly like the pooled path.  Injected
        ``crash`` / ``hang`` faults act on *this* process — a crash
        genuinely kills the run (which is what checkpoint + resume
        recover from) and a hang sleeps; there is no out-of-process
        watchdog to fire.
        """
        while self.queue:
            chunk = self.queue.popleft()
            runs = self._next_runs(chunk)
            self.runs.update(runs)
            tasks = dict(chunk)
            _, telemetry = _run_chunk_guarded(
                self.fn, chunk, self.faults, runs, self.fail_fast,
                emit=lambda outcome: self._attribute(tasks, *outcome))
            self._heartbeat(telemetry)

    # -- pool lifecycle -----------------------------------------------------
    def _size_pool(self, workers: int) -> None:
        """Give the idle pool at least ``workers`` processes.

        Callers ask for no more workers than runnable chunks: a
        ``ProcessPoolExecutor`` forks all of its workers up front, so a
        pool sized to ``jobs`` would fork idle processes for a two-chunk
        sweep or an isolated suspect.
        """
        if self.pool is not None and self.workers >= workers:
            return
        if self.pool is not None:
            _kill_pool(self.pool)
        ctx = multiprocessing.get_context(self.start_method)
        self.pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx)
        self.workers = workers

    def _respawn(self) -> None:
        if self.pool is not None:
            _kill_pool(self.pool)
            self.pool = None
            self.workers = 0
        self.stats.respawns += 1
        self.deadlines.clear()

    def _submit(self, chunk: List[Tuple[int, Any]]) -> bool:
        """Submit ``chunk``; ``False`` when the pool has already broken."""
        runs = self._next_runs(chunk)
        try:
            future = self.pool.submit(_run_chunk_guarded, self.fn, chunk,
                                      self.faults, runs, self.fail_fast)
        except BrokenExecutor:
            # A worker died since the last gather.  Its in-flight chunk
            # reports the loss on the next wait; with none in flight,
            # nobody will, so replace the pool here.
            if self.fail_fast:
                raise
            if not self.inflight:
                self._respawn()
            return False
        self.runs.update(runs)
        self.inflight[future] = chunk
        self.stats.chunks += 1
        if self.policy.task_timeout is not None:
            self.deadlines[future] = (
                time.monotonic()
                + self.policy.task_timeout * len(chunk) + self.grace)
        return True

    # -- failure handling ---------------------------------------------------
    def _quarantine(self, index: int, reason: str, error: str) -> None:
        record = {"index": index, "key": None, "reason": reason,
                  "error": error}
        self.stats.quarantined.append(record)
        self.stats.recovery("task_quarantined", index=index,
                            reason=reason, error=error)

    def _penalize(self, chunk: List[Tuple[int, Any]], reason: str,
                  error: Optional[str] = None) -> None:
        """A chunk failed *attributably*: bisect or retry/quarantine."""
        span = (chunk[0][0], chunk[-1][0])
        if len(chunk) > 1:
            mid = len(chunk) // 2
            self.stats.recovery("chunk_retry", reason=reason,
                                action="bisect", lo=span[0], hi=span[1],
                                tasks=len(chunk))
            self.stats.retried += 1
            self.queue.appendleft(chunk[mid:])
            self.queue.appendleft(chunk[:mid])
            return
        index = chunk[0][0]
        attempt = self.attempts[index] = self.attempts.get(index, 0) + 1
        message = error or f"worker {reason} while running task {index}"
        if attempt > self.policy.retry.max_retries:
            self._quarantine(index, reason, message)
            return
        self.stats.retried += 1
        self.stats.recovery("chunk_retry", reason=reason, action="retry",
                            lo=index, hi=index, tasks=1, attempt=attempt)
        if self.rng is None:
            self.rng = self.policy.rng()
        delay = self.policy.backoff_delay(attempt - 1, self.rng)
        if delay > 0.0:
            time.sleep(delay)
        self.queue.appendleft(list(chunk))

    # -- gather -------------------------------------------------------------
    def _attribute(self, tasks: Dict[int, Any], index: int, ok: bool,
                   value: Any, error: Optional[str]) -> None:
        """Checkpoint a completed task or penalize a failed one."""
        if ok:
            self.checkpoint(index, value)
        else:
            self._penalize([(index, tasks[index])], "error", error)

    def _heartbeat(self, telemetry: Dict[str, Any]) -> None:
        self.gathered += 1
        self.stats.worker_events.append({
            "chunk": self.gathered - 1, "done": self.gathered,
            "total": self.gathered + len(self.queue)
            + len(self.suspects) + len(self.inflight), **telemetry,
        })

    # -- pool loop ----------------------------------------------------------
    def run_pool(self, start_method: Optional[str]) -> None:
        self.start_method = start_method or default_start_method()
        self.grace = POOL_SPINUP_GRACE.get(self.start_method,
                                           DEFAULT_SPINUP_GRACE)
        try:
            while self.queue or self.suspects or self.inflight:
                self._top_up()
                if self.inflight:
                    self._step()
        finally:
            if self.pool is not None:
                _kill_pool(self.pool)
                self.pool = None

    def _top_up(self) -> None:
        """Keep exactly the runnable set submitted.

        Submitting no more chunks than workers means every in-flight
        chunk is actually *running*, so watchdog deadlines and crash
        attribution never implicate a chunk that was merely queued.
        While suspects exist they run strictly one at a time, alone in
        the pool, so a repeat failure identifies the guilty chunk.
        """
        if self.suspects:
            if self.inflight:
                return
            source, limit = self.suspects, 1
        else:
            source, limit = self.queue, self.jobs
        if source and not self.inflight:
            self._size_pool(min(limit, len(source)))
        while source and len(self.inflight) < min(limit, self.workers):
            if not self._submit(source[0]):
                return
            source.popleft()

    def _step(self) -> None:
        timeout = None
        if self.deadlines:
            timeout = max(0.0, min(self.deadlines.values())
                          - time.monotonic())
        done, _ = wait(list(self.inflight), timeout=timeout,
                       return_when=FIRST_COMPLETED)
        broken: List[List[Tuple[int, Any]]] = []
        for future in done:
            chunk = self.inflight.pop(future, None)
            if chunk is None:
                continue
            self.deadlines.pop(future, None)
            try:
                outcomes, telemetry = future.result()
            except (BrokenExecutor, OSError):
                # the worker died (or the result transport collapsed
                # with it) — guilt is attributed below, not here; a
                # fail-fast task's own OSError also lands here
                if self.fail_fast:
                    raise
                broken.append(chunk)
                continue
            tasks = dict(chunk)
            for outcome in outcomes:
                self._attribute(tasks, *outcome)
            self._heartbeat(telemetry)
        if broken:
            # The pool is dead: every still-in-flight chunk was killed
            # with it, and one break is one lost worker.  A lone chunk
            # in flight is guilty by elimination; otherwise nobody can
            # be blamed pool-wide, so all of them re-run in isolation.
            suspects = broken + list(self.inflight.values())
            self.inflight.clear()
            self._respawn()
            if len(suspects) == 1:
                chunk = suspects[0]
                self.stats.recovery("worker_lost", reason="crash",
                                    lo=chunk[0][0], hi=chunk[-1][0],
                                    tasks=len(chunk))
                self._penalize(chunk, "crash")
            else:
                self.stats.recovery("worker_lost", reason="crash",
                                    suspects=len(suspects),
                                    tasks=sum(map(len, suspects)))
                self.suspects.extend(suspects)
            return
        if self.deadlines:
            now = time.monotonic()
            expired = [future for future in list(self.inflight)
                       if future in self.deadlines
                       and now >= self.deadlines[future]
                       and not future.done()]
            if expired:
                # chunks past their own deadline are hung (each deadline
                # already budgets for the chunk's size); the rest were
                # innocent pool-mates and re-run without penalty
                guilty = [self.inflight.pop(future) for future in expired]
                bystanders = list(self.inflight.values())
                self.inflight.clear()
                self._respawn()
                for chunk in guilty:
                    self.stats.recovery("worker_lost", reason="hang",
                                        lo=chunk[0][0], hi=chunk[-1][0],
                                        tasks=len(chunk))
                    self._penalize(chunk, "hang")
                for chunk in bystanders:
                    self.queue.appendleft(chunk)


def sweep_map(fn: Callable[[Any], Any], tasks: Sequence[Any],
              jobs: Optional[int] = None, *,
              cache: Optional[Any] = None,
              key_fn: Optional[Callable[[Any], str]] = None,
              chunk_size: Optional[int] = None,
              start_method: Optional[str] = None,
              stats: Optional[SweepStats] = None,
              policy: Optional[SweepPolicy] = None,
              journal_dir: Optional[str] = None,
              resume: bool = False,
              proc_faults: Optional[Any] = None) -> List[Any]:
    """``[fn(t) for t in tasks]`` with optional fan-out and caching.

    The result list is always in task order and bit-identical across
    worker counts (``fn`` must be a pure function of its task).  With
    ``jobs > 1``, ``fn`` must be module-level and each task picklable.
    Cache hits are never evaluated; the misses run in this process when
    ``jobs == 1`` or at most one misses, else over a process pool of at
    most ``jobs`` workers.  Every completed shard checkpoints as it is
    gathered: ``cache.put`` (in task order when serial) and, with
    ``journal_dir``, a :class:`~repro.par.journal.SweepJournal` line.

    Failures take one of two courses:

    * **fail fast** (none of ``policy`` / ``journal_dir`` / ``resume`` /
      ``proc_faults`` given): the first exception raised by ``fn``
      propagates unchanged (same type and message; shards completed
      before it are already cached when serial, from a pool only those
      of chunks gathered before it), a lost worker raises its
      :class:`~concurrent.futures.BrokenExecutor`, the pool is killed
      first and nothing is retried;
    * **supervised** (any of them given): lost and hung workers are
      detected, the pool respawned, failing chunks bisected and poison
      tasks retried, then quarantined, under ``policy`` (default
      :class:`SweepPolicy`).  ``resume=True`` (requires ``cache`` and
      ``journal_dir``) restores previously completed shards and
      re-executes only the missing ones.  ``proc_faults`` injects
      deterministic process-level failures (tests / ``repro chaos
      --proc-faults``).
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if resume and (cache is None or journal_dir is None):
        raise ValueError(
            "resume requires both a cache (to restore completed shard "
            "values) and a journal_dir (to identify the sweep)")
    if cache is not None and key_fn is None:
        raise ValueError("cache requires a key_fn")
    fail_fast = (policy is None and journal_dir is None and not resume
                 and proc_faults is None)
    if policy is None:
        policy = SweepPolicy()
    if stats is None:
        stats = SweepStats()

    results: List[Any] = [None] * len(tasks)
    keys: List[Optional[str]] = [None] * len(tasks)
    if cache is None:
        pending = list(enumerate(tasks))
    else:
        pending = []
        for index, task in enumerate(tasks):
            key = keys[index] = key_fn(task)
            hit, value = cache.lookup(key)
            if hit:
                results[index] = value
            else:
                pending.append((index, task))
    stats.tasks = len(tasks)
    stats.executed = len(pending)
    stats.cache_hits = len(tasks) - len(pending)
    stats.jobs = jobs
    stats.chunks = 0

    journal = None
    if journal_dir is not None:
        from repro.par.cache import stable_fingerprint
        from repro.par.journal import SweepJournal, journal_path

        sweep_id = stable_fingerprint(
            {"keys": keys} if cache is not None else {"n": len(tasks)})
        journal = SweepJournal(journal_path(journal_dir, sweep_id),
                               sweep_id, tasks=len(tasks), resume=resume)
        if journal.resumed:
            # shards the journal marks done *and* the cache restored
            done_indices = set(journal.done)
            restored = sum(
                1 for index in range(len(tasks))
                if index in done_indices and results[index] is not None)
            stats.resumed = restored
            stats.recovery("sweep_resume", done=restored,
                           tasks=len(tasks))
            # a kill between a shard's cache put and its journal line
            # leaves a value the journal lacks: journal it now
            missing = {index for index, _task in pending}
            for index in range(len(tasks)):
                if index not in done_indices and index not in missing:
                    journal.shard_done(index, key=keys[index])

    def checkpoint(index: int, value: Any) -> None:
        # incremental and cache-first: a kill never loses a gathered
        # shard, nor journals one whose value is missing
        results[index] = value
        if cache is not None:
            cache.put(keys[index], value)
        if journal is not None:
            journal.shard_done(index, key=keys[index])

    try:
        serial = jobs == 1 or len(pending) <= 1
        spans = shard_tasks(len(pending), jobs,
                            max(len(pending), 1) if serial else chunk_size)
        supervisor = _Supervisor(
            fn, [pending[lo:hi] for lo, hi in spans], jobs, policy,
            fail_fast, stats, proc_faults, checkpoint)
        if serial:
            supervisor.run_serial()
        else:
            supervisor.run_pool(start_method)
        for record in stats.quarantined:
            record["key"] = keys[record["index"]]
            if journal is not None:
                journal.event("task_quarantined", index=record["index"],
                              key=record["key"], reason=record["reason"],
                              error=record["error"])
        if journal is not None:
            journal.finish(
                completed=len(tasks) - len(stats.quarantined),
                quarantined=sorted(q["index"] for q in stats.quarantined))
    finally:
        if journal is not None:
            journal.close()

    if policy.strict and stats.quarantined:
        raise SweepQuarantineError(stats.quarantined)
    return results
