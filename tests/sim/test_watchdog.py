"""run() watchdog budgets and the blocked-process registry."""

import numpy as np
import pytest

from repro.sim import DeadlockError, Simulator, WatchdogError


def ticker(sim):
    while True:
        yield sim.timeout(1.0)


def sleeper(sim, delay=1.0):
    yield sim.timeout(delay)


def forever(sim):
    yield sim.event(name="never")


class TestMaxEvents:
    def test_budget_stops_runaway_simulation(self):
        sim = Simulator()
        sim.process(ticker(sim), label="ticker")
        with pytest.raises(WatchdogError, match="max_events=100"):
            sim.run(max_events=100)

    def test_error_is_diagnostic(self):
        sim = Simulator()
        sim.process(ticker(sim), label="spinner")
        with pytest.raises(WatchdogError, match="spinner"):
            sim.run(max_events=10)

    def test_budget_not_hit_is_transparent(self):
        sim = Simulator()
        sim.process(sleeper(sim), label="s")
        sim.run(max_events=1000)
        assert sim.now == 1.0

    def test_guarded_run_matches_unguarded(self):
        plain = Simulator()
        plain.process(sleeper(plain, 2.5), label="s")
        plain.run()
        guarded = Simulator()
        guarded.process(sleeper(guarded, 2.5), label="s")
        guarded.run(max_events=10_000, max_wall_seconds=60.0)
        assert plain.now == guarded.now


class TestTripPoint:
    """``run(max_events=N)`` raises right after entry ``N + 1`` fires.

    The fire loop coalesces cascades and SoA spans; the budget must
    still stop it on the exact entry, never later.
    """

    N = 100

    def test_zero_delay_cascade(self):
        sim = Simulator()
        resumes = []

        def cascade(sim):
            # finite, so a loop that overshoots the budget still returns
            for _ in range(3 * self.N):
                resumes.append(sim.now)
                ev = sim.event()
                ev.succeed()
                yield ev

        sim.process(cascade(sim), label="cascade")
        with pytest.raises(WatchdogError, match=f"max_events={self.N}"):
            sim.run(max_events=self.N)
        # the start token plus N zero-delay events
        assert len(resumes) == self.N + 1
        assert sim.now == 0.0

    def test_heap_timeout_ticker(self):
        sim = Simulator()
        resumes = []

        def ticking(sim):
            for _ in range(3 * self.N):
                resumes.append(sim.now)
                yield sim.timeout(1.0)

        sim.process(ticking(sim), label="ticker")
        with pytest.raises(WatchdogError, match=f"max_events={self.N}"):
            sim.run(max_events=self.N)
        # the start token plus N heap timeouts
        assert len(resumes) == self.N + 1
        assert sim.now == float(self.N)

    def test_anonymous_tick_span(self):
        sim = Simulator()
        sim.schedule_ticks(np.arange(1.0, 3 * self.N + 1))
        with pytest.raises(WatchdogError, match=f"max_events={self.N}"):
            sim.run(max_events=self.N)
        assert sim.batched_fired == self.N + 1
        assert sim.batched_pending == 2 * self.N - 1
        assert sim.now == float(self.N + 1)


class TestMaxWallSeconds:
    def test_wall_budget_trips(self):
        sim = Simulator()
        sim.process(ticker(sim), label="ticker")
        with pytest.raises(WatchdogError, match="wall"):
            sim.run(max_wall_seconds=0.0)

    def test_generous_wall_budget_is_transparent(self):
        sim = Simulator()
        sim.process(sleeper(sim), label="s")
        sim.run(max_wall_seconds=300.0)
        assert sim.now == 1.0


class TestBlockedRegistry:
    def test_deadlock_error_names_blocked_processes(self):
        sim = Simulator()
        sim.process(forever(sim), label="rank0")
        sim.process(forever(sim), label="rank1")
        with pytest.raises(DeadlockError, match="rank0.*rank1"):
            sim.run()

    def test_blocked_labels_lists_live_processes(self):
        sim = Simulator()
        sim.process(forever(sim), label="stuck")
        sim.process(sleeper(sim), label="done")
        with pytest.raises(DeadlockError):
            sim.run()
        assert sim.blocked_labels() == ["stuck"]

    def test_blocked_detail_caps_the_listing(self):
        sim = Simulator()
        for i in range(12):
            sim.process(forever(sim), label=f"p{i:02d}")
        with pytest.raises(DeadlockError, match=r"4 more"):
            sim.run()

    def test_no_processes_no_registry_noise(self):
        sim = Simulator()
        sim.run()
        assert sim.blocked_labels() == []

    def test_reset_clears_registry(self):
        sim = Simulator()
        sim.process(forever(sim), label="stuck")
        with pytest.raises(DeadlockError):
            sim.run()
        sim.reset()
        assert sim.blocked_labels() == []
