"""Firing-order parity: optimized three-queue engine vs a pure-heap kernel.

The production engine splits pending events across an immediate deque,
a binary heap and a struct-of-arrays run.  These property-style tests
replay randomized programs — same-time schedules, interrupts, zero-delay
cascades, fail propagation, batch APIs — on both that engine and a
single-heap reference that funnels *everything* through one ``heapq``,
and assert the two fire the identical ``(time, tag)`` sequence.
"""

import heapq

import numpy as np
import pytest

from repro.obs import MemoryTracer
from repro.sim import Simulator, TickBatch
from repro.sim.engine import Interrupt


class _RefTick:
    """Heap payload standing in for one anonymous SoA tick."""

    __slots__ = ("batch",)

    def __init__(self, batch=None):
        self.batch = batch

    def _process_callbacks(self):
        if self.batch is not None:
            self.batch._complete_now()


class HeapReferenceSimulator(Simulator):
    """Single-heap kernel: the ordering oracle.

    Every schedule — zero-delay, positive-delay, engine token, batch —
    becomes one ``heapq`` push, so the fired order is *defined* by the
    heap's ``(time, seq)`` tuple order.  Sequence numbers are claimed in
    the same order as the optimized engine (one per event, batch entries
    in input order), so any divergence in fired order is an engine bug,
    not a numbering artifact.
    """

    def _schedule(self, event, delay=0.0):
        if delay < 0.0:
            raise ValueError(f"negative delay {delay!r}")
        heapq.heappush(self._heap,
                       (self._now + delay, next(self._seq), event))

    def _schedule_token(self, token):
        heapq.heappush(self._heap, (self._now, next(self._seq), token))

    def schedule_ticks(self, delays, complete=False):
        delays = self._check_batch_delays(delays)
        n = int(delays.size)
        batch = TickBatch(self, n, complete)
        if n == 0:
            if complete:
                batch.completed.succeed(batch)
            return batch
        times = (self._now + delays).tolist()
        last = max(range(n), key=lambda i: (times[i], i)) if complete else -1
        for i, when in enumerate(times):
            payload = _RefTick(batch if i == last else None)
            heapq.heappush(self._heap, (when, next(self._seq), payload))
        return batch

    def timeout_batch(self, delays, values=None):
        delays = self._check_batch_delays(delays)
        n = int(delays.size)
        if values is not None and len(values) != n:
            raise ValueError(f"values length {len(values)} != delays length {n}")
        vals = values if values is not None else (None,) * n
        return [self.timeout(d, value=v)
                for d, v in zip(delays.tolist(), vals)]


def both_engines():
    return Simulator(), HeapReferenceSimulator()


def _step_to_end(sim):
    while sim.peek() < float("inf"):
        sim.step()


#: every way to drive the optimized engine to completion: (simulator
#: factory, driver); each must fire the reference's exact sequence
RUN_MODES = {
    "plain": (Simulator, lambda sim: sim.run()),
    "guarded": (Simulator,
                lambda sim: sim.run(max_events=10 ** 9,
                                    max_wall_seconds=1e9)),
    "traced": (lambda: Simulator(tracer=MemoryTracer()),
               lambda sim: sim.run()),
    "stepped": (Simulator, _step_to_end),
}


def _seeds_by_mode(seeds):
    """(seed, mode) params; plain-mode cases keep the bare-seed id."""
    return [pytest.param(seed, mode,
                         id=str(seed) if mode == "plain" else f"{seed}-{mode}")
            for seed in seeds for mode in RUN_MODES]


def _record(log):
    return lambda ev: log.append((ev.sim.now, ev.value))


# -- randomized mixed programs -------------------------------------------------

def _build_plan(seed, n_ops=40):
    """A deterministic random program: op list drawn from a seeded rng.

    Integer delays on a tiny range force heavy (time, seq) ties, the
    regime where deque/heap/SoA tie-breaking must agree exactly.
    """
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_ops):
        kind = int(rng.integers(0, 4))
        if kind == 0:
            ops.append(("timeout", float(rng.integers(1, 6))))
        elif kind == 1:
            size = int(rng.integers(1, 5))
            ops.append(("batch", [float(x)
                                  for x in rng.integers(1, 6, size)]))
        elif kind == 2:
            size = int(rng.integers(1, 5))
            ops.append(("ticks", [float(x)
                                  for x in rng.integers(1, 6, size)]))
        else:
            ops.append(("proc", float(rng.integers(1, 6)),
                        float(rng.integers(1, 6))))
    return ops


def _execute(sim, plan, drive=Simulator.run):
    log = []
    for i, op in enumerate(plan):
        if op[0] == "timeout":
            t = sim.timeout(op[1], value=f"T{i}")
            t.callbacks.append(_record(log))
        elif op[0] == "batch":
            ts = sim.timeout_batch(
                op[1], values=[f"B{i}.{j}" for j in range(len(op[1]))])
            for t in ts:
                t.callbacks.append(_record(log))
        elif op[0] == "ticks":
            b = sim.schedule_ticks(op[1], complete=True)
            b.completed.callbacks.append(
                lambda ev, i=i: log.append((ev.sim.now, f"K{i}")))
        else:
            _, d1, d2 = op

            def proc(sim, i=i, d1=d1, d2=d2):
                log.append((sim.now, f"P{i}-start"))
                yield sim.timeout(d1)
                log.append((sim.now, f"P{i}-mid"))
                ev = sim.event()
                ev.succeed(f"P{i}-imm")  # zero-delay cascade
                v = yield ev
                log.append((sim.now, v))
                yield sim.timeout(d2)
                log.append((sim.now, f"P{i}-end"))

            sim.process(proc(sim))
    drive(sim)
    return log


@pytest.mark.parametrize("seed,mode",
                         _seeds_by_mode([0, 1, 2, 3, 17, 42, 1234]))
def test_random_mixed_programs_match_reference(seed, mode):
    make, drive = RUN_MODES[mode]
    opt, ref = make(), HeapReferenceSimulator()
    plan = _build_plan(seed)
    log_opt = _execute(opt, plan, drive)
    log_ref = _execute(ref, plan)
    assert log_opt == log_ref
    assert opt.now == ref.now


@pytest.mark.parametrize("seed,mode", _seeds_by_mode([5, 6, 7]))
def test_large_batches_match_reference(seed, mode):
    """Bulk SoA traffic interleaved with scalar timeouts.

    The anonymous ticks push the run past several 256-event trace
    sample points, so the traced mode's chunk ends land inside
    anonymous-tick spans as well as on callback events.
    """
    rng = np.random.default_rng(seed)
    delays = rng.integers(1, 20, 200).astype(float)
    singles = rng.integers(1, 20, 30).astype(float)
    ticks = rng.integers(1, 20, 600).astype(float)

    def execute(sim, drive=Simulator.run):
        log = []
        ts = sim.timeout_batch(delays, values=list(range(delays.size)))
        for t in ts:
            t.callbacks.append(_record(log))
        sim.schedule_ticks(ticks, complete=True).completed.callbacks.append(
            lambda ev: log.append((ev.sim.now, "ticks-done")))
        for j, d in enumerate(singles.tolist()):
            t = sim.timeout(d, value=f"s{j}")
            t.callbacks.append(_record(log))
        drive(sim)
        return log

    make, drive = RUN_MODES[mode]
    opt, ref = make(), HeapReferenceSimulator()
    assert execute(opt, drive) == execute(ref)
    assert opt.now == ref.now


# -- targeted scenarios --------------------------------------------------------

def _interrupt_scenario(sim):
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(10.0)
            log.append((sim.now, "slept"))
        except Interrupt as exc:
            log.append((sim.now, f"interrupted:{exc.cause}"))
        yield sim.timeout(1.0)
        log.append((sim.now, "after-interrupt"))

    victim = sim.process(sleeper(sim))

    def poker(sim):
        yield sim.timeout(3.0)
        victim.interrupt("poke")
        log.append((sim.now, "poked"))

    sim.process(poker(sim))
    ts = sim.timeout_batch([3.0, 4.0], values=["b3", "b4"])
    for t in ts:
        t.callbacks.append(_record(log))
    sim.run()
    return log


def test_interrupts_match_reference():
    opt, ref = both_engines()
    assert _interrupt_scenario(opt) == _interrupt_scenario(ref)


def _same_time_scenario(sim):
    """Many sources all landing on t=1.0: order must be schedule order."""
    log = []
    sim.timeout(1.0, value="h0").callbacks.append(_record(log))
    for t in sim.timeout_batch([1.0, 1.0], values=["b0", "b1"]):
        t.callbacks.append(_record(log))
    sim.timeout(1.0, value="h1").callbacks.append(_record(log))
    batch = sim.schedule_ticks([1.0, 1.0], complete=True)
    batch.completed.callbacks.append(
        lambda ev: log.append((ev.sim.now, "ticks-done")))
    sim.timeout(1.0, value="h2").callbacks.append(_record(log))
    sim.run()
    return log


def test_same_time_schedules_match_reference():
    opt, ref = both_engines()
    log_opt = _same_time_scenario(opt)
    assert log_opt == _same_time_scenario(ref)
    # schedule order is the tie-break; the ticks' completion event is
    # succeed()-ed when the last tick fires, so it lands one seq later
    # in the immediate queue — after h2, still at t=1.0
    assert [tag for _, tag in log_opt] == \
        ["h0", "b0", "b1", "h1", "h2", "ticks-done"]


def _fail_scenario(sim):
    log = []
    ev = sim.event()
    ev.fail(KeyError("boom"), delay=2.0)

    def waiter(sim, tag):
        try:
            yield ev
        except KeyError:
            log.append((sim.now, f"{tag}-caught"))
        yield sim.timeout(1.0)
        log.append((sim.now, f"{tag}-done"))

    sim.process(waiter(sim, "w1"))
    sim.process(waiter(sim, "w2"))
    # batch events straddle the failure time
    for t in sim.timeout_batch([1.0, 2.0, 3.0], values=["a", "b", "c"]):
        t.callbacks.append(_record(log))
    sim.run()
    return log


def test_fail_propagation_matches_reference():
    opt, ref = both_engines()
    assert _fail_scenario(opt) == _fail_scenario(ref)


def _cascade_scenario(sim):
    """Zero-delay chains spawned from batch ticks vs heap timeouts."""
    log = []

    def chain(sim, depth, tag):
        if depth == 0:
            return
        ev = sim.event()
        ev.callbacks.append(
            lambda e, d=depth: (log.append((e.sim.now, f"{tag}@{d}")),
                                chain(e.sim, d - 1, tag)))
        ev.succeed(None)

    for t in sim.timeout_batch([1.0, 2.0], values=["c1", "c2"]):
        t.callbacks.append(
            lambda ev: (log.append((ev.sim.now, ev.value)),
                        chain(ev.sim, 3, ev.value)))
    mid = sim.timeout(1.0, value="m")
    mid.callbacks.append(_record(log))
    sim.run()
    return log


def test_zero_delay_cascades_match_reference():
    opt, ref = both_engines()
    log_opt = _cascade_scenario(opt)
    assert log_opt == _cascade_scenario(ref)
    # the cascade at t=1 drains before the later batch tick at t=2
    tags = [tag for _, tag in log_opt]
    assert tags.index("c1@1") < tags.index("c2")


def test_reference_and_engine_agree_on_sequence_claims():
    """Seq parity: batch block claims line up with per-event claims."""
    opt, ref = both_engines()
    for sim in (opt, ref):
        sim.timeout(1.0)
        sim.timeout_batch([1.0, 2.0])
        sim.timeout(3.0)
    assert next(opt._seq) == next(ref._seq)
