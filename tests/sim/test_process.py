"""Unit tests for generator processes."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, Interrupt


@pytest.fixture
def env():
    return Environment()


class TestProcess:
    def test_return_value_becomes_event_value(self, env):
        def proc(env):
            yield env.timeout(1)
            return "result"

        p = env.process(proc(env))
        assert env.run(until=p) == "result"
        assert env.now == 1

    def test_processes_interleave_by_time(self, env):
        log = []

        def worker(env, name, delay):
            yield env.timeout(delay)
            log.append((env.now, name))

        env.process(worker(env, "slow", 2))
        env.process(worker(env, "fast", 1))
        env.run()
        assert log == [(1, "fast"), (2, "slow")]

    def test_join_another_process(self, env):
        def child(env):
            yield env.timeout(3)
            return 99

        def parent(env):
            value = yield env.process(child(env))
            return value + 1

        assert env.run(until=env.process(parent(env))) == 100

    def test_exception_propagates_to_joiner(self, env):
        def child(env):
            yield env.timeout(1)
            raise ValueError("child died")

        def parent(env):
            yield env.process(child(env))

        with pytest.raises(ValueError, match="child died"):
            env.run(until=env.process(parent(env)))

    def test_unwaited_crash_surfaces_in_run(self, env):
        def crasher(env):
            yield env.timeout(1)
            raise RuntimeError("nobody is watching")

        env.process(crasher(env))
        with pytest.raises(RuntimeError, match="nobody is watching"):
            env.run()

    def test_yielding_non_event_fails_process(self, env):
        def bad(env):
            yield 42

        with pytest.raises(SimulationError, match="may only yield"):
            env.run(until=env.process(bad(env)))

    def test_yield_already_processed_event(self, env):
        ev = env.event()
        ev.succeed("early")

        def proc(env):
            yield env.timeout(1)
            value = yield ev  # long since processed
            return value

        assert env.run(until=env.process(proc(env))) == "early"

    def test_is_alive(self, env):
        def proc(env):
            yield env.timeout(5)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, env.now)

        def killer(env, victim):
            yield env.timeout(2)
            victim.interrupt("maintenance")

        victim = env.process(sleeper(env))
        env.process(killer(env, victim))
        assert env.run(until=victim) == ("interrupted", "maintenance", 2)

    def test_interrupted_process_can_continue(self, env):
        def sleeper(env):
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(1)
            return env.now

        def killer(env, victim):
            yield env.timeout(2)
            victim.interrupt()

        victim = env.process(sleeper(env))
        env.process(killer(env, victim))
        assert env.run(until=victim) == 3

    def test_stale_timeout_does_not_resume_twice(self, env):
        resumed = []

        def sleeper(env):
            try:
                yield env.timeout(1)
            except Interrupt:
                resumed.append("interrupt")
            yield env.timeout(5)
            resumed.append("second sleep done")

        def killer(env, victim):
            yield env.timeout(0)
            victim.interrupt()

        victim = env.process(sleeper(env))
        env.process(killer(env, victim))
        env.run()
        assert resumed == ["interrupt", "second sleep done"]

    def test_interrupt_while_target_dispatches(self, env):
        # The killer and the victim both wait on ``signal``; the killer's
        # callback runs first and interrupts the victim, whose callback on
        # the same event still runs.  The interrupt must then land on what
        # the victim waits on next, and that event must not resume it a
        # second time.
        signal = env.event()
        resumed = []

        def killer(env):
            yield signal
            victim.interrupt("stop")

        def sleeper(env):
            yield signal
            resumed.append("signal")
            try:
                yield env.timeout(0)
            except Interrupt as irq:
                resumed.append(irq.cause)

        env.process(killer(env))
        victim = env.process(sleeper(env))
        env.timeout(1).callbacks.append(lambda _e: signal.succeed())
        env.run()
        assert resumed == ["signal", "stop"]
        assert victim.ok

    def test_interrupt_dropped_if_process_finished_first(self, env):
        signal = env.event()

        def killer(env):
            yield signal
            victim.interrupt("late")

        def quick(env):
            yield signal
            return "done"

        env.process(killer(env))
        victim = env.process(quick(env))
        env.timeout(1).callbacks.append(lambda _e: signal.succeed())
        env.run()
        assert victim.value == "done"

    def test_interrupting_finished_process_is_error(self, env):
        def quick(env):
            yield env.timeout(1)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()
