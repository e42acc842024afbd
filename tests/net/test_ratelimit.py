"""Unit tests for TokenBucket and NullLimiter."""

import pytest

from repro.errors import NetworkError
from repro.net import NullLimiter, TokenBucket
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


class TestTokenBucket:
    def test_burst_passes_immediately(self, env):
        bucket = TokenBucket(env, rate=100, burst=1000)

        def proc(env):
            yield from bucket.consume(1000)
            return env.now

        assert env.run(until=env.process(proc(env))) == 0.0

    def test_sustained_rate_paces_consumers(self, env):
        bucket = TokenBucket(env, rate=100, burst=100)

        def proc(env):
            for _ in range(5):
                yield from bucket.consume(100)
            return env.now

        # First 100 from burst, the other 400 refill at 100/s -> 4 s.
        assert env.run(until=env.process(proc(env))) == pytest.approx(4.0)

    def test_refill_caps_at_burst(self, env):
        bucket = TokenBucket(env, rate=1000, burst=10)

        def proc(env):
            yield from bucket.consume(10)
            yield env.timeout(100)  # long idle; bucket must cap at burst=10
            return bucket.available

        assert env.run(until=env.process(proc(env))) == pytest.approx(10)

    def test_queued_consumers_are_ordered(self, env):
        bucket = TokenBucket(env, rate=100, burst=0.001)
        order = []

        def consumer(env, name, nbytes):
            yield from bucket.consume(nbytes)
            order.append((name, env.now))

        env.process(consumer(env, "a", 100))
        env.process(consumer(env, "b", 100))
        env.run()
        assert order[0][0] == "a"
        assert order[1][0] == "b"
        assert order[1][1] >= order[0][1]

    def test_invalid_parameters(self, env):
        with pytest.raises(NetworkError):
            TokenBucket(env, rate=0)
        with pytest.raises(NetworkError):
            TokenBucket(env, rate=10, burst=0)

    def test_negative_consume_rejected(self, env):
        bucket = TokenBucket(env, rate=10)
        with pytest.raises(NetworkError):
            next(bucket.consume(-1))


class TestNullLimiter:
    def test_never_delays(self, env):
        limiter = NullLimiter()

        def proc(env):
            yield from limiter.consume(10**12)
            yield env.timeout(0)
            return env.now

        assert env.run(until=env.process(proc(env))) == 0.0
        assert limiter.consumed == 10**12
