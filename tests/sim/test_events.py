"""Unit tests for sim event primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestEvent:
    def test_starts_pending(self, env):
        ev = env.event()
        assert not ev.triggered
        assert not ev.processed

    def test_value_unavailable_before_trigger(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_succeed_sets_value(self, env):
        ev = env.event()
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_double_trigger_rejected(self, env):
        ev = env.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()
        with pytest.raises(SimulationError):
            ev.fail(RuntimeError("x"))

    def test_fail_requires_exception(self, env):
        ev = env.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")

    def test_callbacks_run_on_processing(self, env):
        ev = env.event()
        seen = []
        ev.callbacks.append(lambda e: seen.append(e.value))
        ev.succeed("hello")
        assert seen == []  # not yet processed
        env.run()
        assert seen == ["hello"]
        assert ev.processed

    def test_unhandled_failure_raises_from_run(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        with pytest.raises(ValueError, match="boom"):
            env.run()

    def test_defused_failure_is_silent(self, env):
        ev = env.event()
        ev.fail(ValueError("boom"))
        ev.defuse()
        env.run()  # no raise


class TestTimeout:
    def test_fires_at_delay(self, env):
        t = env.timeout(2.5, value="done")
        env.run()
        assert env.now == 2.5
        assert t.value == "done"

    def test_negative_delay_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1)

    def test_zero_delay_fires_now(self, env):
        env.timeout(0)
        env.run()
        assert env.now == 0.0

    def test_ordering_among_timeouts(self, env):
        order = []
        for delay in (3, 1, 2):
            env.timeout(delay).callbacks.append(
                lambda e, d=delay: order.append(d))
        env.run()
        assert order == [1, 2, 3]


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        t1, t2 = env.timeout(1, "a"), env.timeout(2, "b")
        cond = env.all_of([t1, t2])
        env.run()
        assert cond.triggered
        assert list(cond.value.values()) == ["a", "b"]
        assert env.now == 2

    def test_empty_all_of_fires_immediately(self, env):
        cond = env.all_of([])
        assert cond.triggered
        assert cond.value == {}

    def test_condition_propagates_failure(self, env):
        ev = env.event()
        cond = env.all_of([ev, env.timeout(5)])
        ev.fail(RuntimeError("inner"))
        with pytest.raises(RuntimeError, match="inner"):
            env.run(until=cond)

    def test_mixed_environment_rejected(self, env):
        other = Environment()
        with pytest.raises(SimulationError):
            env.all_of([env.timeout(1), other.timeout(1)])
