"""Unit tests for the driver's in-flight accounting and quiesce."""

import pytest

from repro.sim import Environment
from repro.storage import (
    BackendDriver,
    PhysicalDisk,
    VirtualBlockDevice,
    write,
)
from repro.units import MiB


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def driver(env):
    disk = PhysicalDisk(env, 10 * MiB, 10 * MiB, seek_time=0)
    return BackendDriver(env, disk, VirtualBlockDevice(1000))


class TestInflight:
    def test_counts_during_service(self, env, driver):
        observed = []

        def guest(env):
            yield from driver.submit(write(0, 256))  # 1 MiB -> 0.1 s

        def watcher(env):
            yield env.timeout(0.05)
            observed.append(driver.inflight)
            yield env.timeout(0.1)
            observed.append(driver.inflight)

        env.process(guest(env))
        env.process(watcher(env))
        env.run()
        assert observed == [1, 0]

    def test_quiesce_waits_for_inflight(self, env, driver):
        done = {}

        def guest(env):
            yield from driver.submit(write(0, 256))

        def migrator(env):
            yield env.timeout(0.01)  # guest op is mid-flight
            yield from driver.quiesce()
            done["at"] = env.now

        env.process(guest(env))
        env.process(migrator(env))
        env.run()
        assert done["at"] == pytest.approx(0.1, abs=1e-6)

    def test_quiesce_immediate_when_idle(self, env, driver):
        def migrator(env):
            yield from driver.quiesce()
            return env.now

        assert env.run(until=env.process(migrator(env))) == 0.0

    def test_multiple_quiescers_all_released(self, env, driver):
        released = []

        def guest(env):
            yield from driver.submit(write(0, 256))

        def waiter(env, name):
            yield env.timeout(0.01)
            yield from driver.quiesce()
            released.append(name)

        env.process(guest(env))
        env.process(waiter(env, "a"))
        env.process(waiter(env, "b"))
        env.run()
        assert sorted(released) == ["a", "b"]

    def test_writes_applied_before_quiesce_returns(self, env, driver):
        """The freeze-phase guarantee: drained writes are on the VBD (and
        in the tracking bitmap) when quiesce returns."""
        from repro.bitmap import FlatBitmap

        bitmap = FlatBitmap(1000)
        driver.start_tracking("precopy", bitmap)
        state = {}

        def guest(env):
            yield from driver.submit(write(7, 256))

        def migrator(env):
            yield env.timeout(0.01)
            yield from driver.quiesce()
            state["stamp"] = int(driver.vbd.read(7)[0])
            state["tracked"] = bitmap.test(7)

        env.process(guest(env))
        env.process(migrator(env))
        env.run()
        assert state["stamp"] > 0
        assert state["tracked"]


class TestNoWaiter:
    def test_quiesce_on_a_driver_that_never_had_a_waiter(self, env, driver):
        # Nothing in flight: quiesce returns without making an event.
        def idle(env):
            yield from driver.quiesce()
            return env.now

        assert env.run(until=env.process(idle(env))) == 0.0

        # Requests drained before anyone waited leave no waiter behind,
        # and a later quiesce still wakes on the next drain.
        def traffic(env):
            yield from driver.submit(write(0, 256))  # 1 MiB -> 0.1 s

        env.run(until=env.process(traffic(env)))
        woke = []

        def late(env):
            yield env.timeout(0.05)
            yield from driver.quiesce()
            woke.append(env.now)

        env.process(traffic(env))
        env.run(until=env.process(late(env)))
        assert woke == [pytest.approx(0.2)] and driver.inflight == 0
