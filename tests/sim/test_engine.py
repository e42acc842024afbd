"""Unit tests for the Environment event loop."""

import math

import pytest

from repro.errors import SimulationError, StaleSchedulingError
from repro.sim import Environment, NORMAL, URGENT


@pytest.fixture
def env():
    return Environment()


class TestClock:
    def test_starts_at_initial_time(self):
        assert Environment(initial_time=5.0).now == 5.0

    def test_run_until_number_advances_clock_exactly(self, env):
        env.timeout(10)
        env.run(until=3.5)
        assert env.now == 3.5

    def test_run_until_past_is_rejected(self, env):
        env.timeout(1)
        env.run(until=2)
        with pytest.raises(StaleSchedulingError):
            env.run(until=1)

    def test_run_until_nan_is_rejected(self, env):
        env.timeout(1)
        with pytest.raises(StaleSchedulingError):
            env.run(until=math.nan)
        assert env.now == 0

    def test_run_until_inf_is_run(self, env):
        # An infinite horizon runs until no events remain, like run(),
        # and leaves the clock at the last event, not at infinity.
        env.timeout(2.5)
        env.run(until=math.inf)
        assert env.now == 2.5
        later = env.timeout(1.0)
        env.run()
        assert later.processed and env.now == 3.5

    def test_peek_empty_queue(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_next_event_time(self, env):
        env.timeout(7)
        env.timeout(3)
        assert env.peek() == 3

    def test_step_on_empty_queue_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()


class TestScheduling:
    def test_urgent_beats_normal_at_same_time(self, env):
        order = []
        normal = env.event()
        urgent = env.event()
        normal.callbacks.append(lambda e: order.append("normal"))
        urgent.callbacks.append(lambda e: order.append("urgent"))
        normal._ok = urgent._ok = True
        normal._value = urgent._value = None
        env.schedule(normal, priority=NORMAL)
        env.schedule(urgent, priority=URGENT)
        env.run()
        assert order == ["urgent", "normal"]

    def test_fifo_within_same_time_and_priority(self, env):
        order = []
        for i in range(5):
            ev = env.event()
            ev._ok, ev._value = True, None
            ev.callbacks.append(lambda e, i=i: order.append(i))
            env.schedule(ev)
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self, env):
        with pytest.raises(StaleSchedulingError):
            env.schedule(env.event(), delay=-1)


class TestRunUntilEvent:
    def test_returns_event_value(self, env):
        assert env.run(until=env.timeout(2, value="v")) == "v"

    def test_already_processed_event(self, env):
        t = env.timeout(1, value="v")
        env.run()
        assert env.run(until=t) == "v"

    def test_queue_drain_before_event_raises(self, env):
        ev = env.event()  # never triggered
        env.timeout(1)
        with pytest.raises(SimulationError, match="drained"):
            env.run(until=ev)

    def test_failed_until_event_raises(self, env):
        def failer(env, ev):
            yield env.timeout(1)
            ev.fail(KeyError("k"))

        ev = env.event()
        env.process(failer(env, ev))
        with pytest.raises(KeyError):
            env.run(until=ev)

    def test_live_failed_event_defused_when_waiter_handled_it(self, env):
        """Live branch: a failure already handled by a waiter is re-raised
        to the run(until=...) caller and left defused."""
        ev = env.event()

        def failer(env):
            yield env.timeout(1)
            ev.fail(ValueError("boom"))

        def waiter(env):
            try:
                yield ev
            except ValueError:
                pass

        env.process(failer(env))
        env.process(waiter(env))
        with pytest.raises(ValueError):
            env.run(until=ev)
        assert ev._defused

    def test_already_processed_failed_event_raises_and_defuses(self, env):
        """The already-processed branch must behave like the live one:
        raise the failure AND defuse it."""

        def failer(env):
            yield env.timeout(1)
            raise KeyError("k")

        proc = env.process(failer(env))
        with pytest.raises(KeyError):
            env.run(until=proc)  # watchdog path; leaves proc undefused
        assert not proc._defused
        # Second run hits the already-processed branch: it hands the
        # failure to this caller, so it must defuse like the live branch.
        with pytest.raises(KeyError):
            env.run(until=proc)
        assert proc._defused

    def test_preprocessed_failed_event_defused_by_run(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        ev.defuse()
        env.run()  # processes the event; defused, so no crash
        with pytest.raises(ValueError):
            env.run(until=ev)
        assert ev._defused

    def test_waiter_added_after_stop_hook_resumes_before_return(self, env):
        """A process that starts waiting on the until-event after run()
        began has its callback behind the stop hook; it must still be
        resumed before run() returns, with the event count of a step()
        loop."""

        def scenario(env):
            stop = env.event()
            seen = []

            def late_waiter(env):
                yield env.timeout(1)
                value = yield stop
                seen.append((env.now, value))

            def trigger(env):
                yield env.timeout(2)
                stop.succeed("go")

            env.process(late_waiter(env))
            env.process(trigger(env))
            env.timeout(5)
            return stop, seen

        stop, seen = scenario(env)
        assert env.run(until=stop) == "go"
        assert seen == [(2, "go")]

        ref = Environment()
        ref_stop, ref_seen = scenario(ref)
        while not ref_stop.processed:
            ref.step()
        assert ref_seen == seen
        assert env.events_processed == ref.events_processed
        assert env.now == ref.now == 2
