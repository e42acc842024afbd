"""Unit tests for the link model."""

import pytest

from repro.errors import NetworkError
from repro.net import DuplexLink, Link
from repro.sim import Environment
from repro.units import MB, Gbps


@pytest.fixture
def env():
    return Environment()


class TestLink:
    def test_transmission_time(self, env):
        link = Link(env, bandwidth=125 * MB, latency=0)
        assert link.transmission_time(125 * MB) == pytest.approx(1.0)

    def test_transmit_occupies_wire(self, env):
        link = Link(env, bandwidth=100 * MB, latency=0)
        done = []

        def sender(env, name, nbytes):
            yield from link.transmit(nbytes)
            done.append((env.now, name))

        env.process(sender(env, "a", 100 * MB))
        env.process(sender(env, "b", 100 * MB))
        env.run()
        assert done == [(pytest.approx(1.0), "a"), (pytest.approx(2.0), "b")]
        assert link.bytes_sent == 200 * MB

    def test_priority_preempts_queue_order(self, env):
        link = Link(env, bandwidth=100 * MB, latency=0)
        order = []

        def sender(env, name, prio, start):
            yield env.timeout(start)
            yield from link.transmit(50 * MB, priority=prio)
            order.append(name)

        env.process(sender(env, "first", 5, 0))
        env.process(sender(env, "bulk", 5, 0.1))
        env.process(sender(env, "pulled", 0, 0.2))
        env.run()
        assert order == ["first", "pulled", "bulk"]

    def test_invalid_parameters(self, env):
        with pytest.raises(NetworkError):
            Link(env, bandwidth=0)
        with pytest.raises(NetworkError):
            Link(env, latency=-1)

    def test_negative_size_rejected(self, env):
        link = Link(env)

        def proc(env):
            yield from link.transmit(-5)

        with pytest.raises(NetworkError):
            env.run(until=env.process(proc(env)))


class TestDuplexLink:
    def test_directions_are_independent(self, env):
        duplex = DuplexLink(env, bandwidth=100 * MB, latency=0)
        done = []

        def fwd(env):
            yield from duplex.forward.transmit(100 * MB)
            done.append(("fwd", env.now))

        def rev(env):
            yield from duplex.backward.transmit(100 * MB)
            done.append(("rev", env.now))

        env.process(fwd(env))
        env.process(rev(env))
        env.run()
        # Full duplex: both complete at t=1, not serialized.
        assert done == [("fwd", pytest.approx(1.0)), ("rev", pytest.approx(1.0))]
        assert duplex.bytes_sent == 200 * MB

    def test_default_rate_is_gigabit(self, env):
        duplex = DuplexLink(env)
        assert duplex.forward.bandwidth == pytest.approx(1 * Gbps)
