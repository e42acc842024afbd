"""Unit tests for Channel and message accounting."""

import numpy as np
import pytest

from repro.errors import NetworkError
from repro.net import (
    HEADER_NBYTES,
    BitmapMsg,
    BlockDataMsg,
    Channel,
    ControlMsg,
    CPUStateMsg,
    DeltaMsg,
    Link,
    MemoryPagesMsg,
    PullRequestMsg,
    TokenBucket,
    channel_pair,
)
from repro.sim import Environment
from repro.units import MB
from repro.vm.host import Host


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def chan(env):
    return Channel(env, Link(env, bandwidth=100 * MB, latency=0.01))


class TestMessageSizes:
    def test_block_data(self):
        msg = BlockDataMsg(np.arange(10), np.arange(10), block_size=4096)
        assert msg.nblocks == 10
        assert msg.payload_nbytes == 10 * (4096 + 8)
        assert msg.wire_nbytes == msg.payload_nbytes + HEADER_NBYTES

    def test_bitmap(self):
        msg = BitmapMsg(nbits=100, dirty_indices=np.array([1]),
                        serialized_nbytes=13)
        assert msg.payload_nbytes == 13

    def test_pull_request_is_tiny(self):
        assert PullRequestMsg(5).wire_nbytes < 128

    def test_memory_pages(self):
        msg = MemoryPagesMsg(np.arange(4), np.arange(4), page_size=4096)
        assert msg.npages == 4
        assert msg.payload_nbytes == 4 * 4104

    def test_cpu_state(self):
        assert CPUStateMsg(state_nbytes=8192).payload_nbytes == 8192

    def test_delta(self):
        assert DeltaMsg(3, 2, block_size=4096).payload_nbytes == 2 * 4096 + 16

    def test_control(self):
        assert ControlMsg("go").payload_nbytes == 32
        assert ControlMsg("go", extra_nbytes=100).payload_nbytes == 132


class TestChannel:
    def test_send_recv_roundtrip(self, env, chan):
        def sender(env):
            yield from chan.send(ControlMsg("hello"), category="control")

        def receiver(env):
            msg = yield chan.recv()
            return (msg.tag, env.now)

        env.process(sender(env))
        tag, at = env.run(until=env.process(receiver(env)))
        assert tag == "hello"
        # transmit time + 10 ms latency
        expected = ControlMsg("hello").wire_nbytes / (100 * MB) + 0.01
        assert at == pytest.approx(expected)

    def test_order_preserved(self, env, chan):
        def sender(env):
            for i in range(5):
                yield from chan.send(ControlMsg(f"m{i}"), category="control")

        got = []

        def receiver(env):
            for _ in range(5):
                msg = yield chan.recv()
                got.append(msg.tag)

        env.process(sender(env))
        env.process(receiver(env))
        env.run()
        assert got == [f"m{i}" for i in range(5)]

    def test_ledger_by_category(self, env, chan):
        def sender(env):
            yield from chan.send(ControlMsg("a"), category="control")
            yield from chan.send(
                BlockDataMsg(np.arange(2), np.arange(2)), category="disk")

        env.process(sender(env))
        env.run()
        ledger = chan.ledger()
        assert set(ledger) == {"control", "disk"}
        assert chan.total_bytes == sum(ledger.values())
        assert chan.messages_sent == 2

    def test_rate_limited_send(self, env):
        link = Link(env, bandwidth=100 * MB, latency=0)
        bucket = TokenBucket(env, rate=1 * MB, burst=1)
        chan = Channel(env, link, limiter=bucket)
        msg = BlockDataMsg(np.arange(250), np.arange(250))  # ~1 MB

        def sender(env):
            yield from chan.send(msg, category="disk")
            return env.now

        # Paced by the 1 MB/s bucket, not the 100 MB/s link.
        at = env.run(until=env.process(sender(env)))
        assert at == pytest.approx(msg.wire_nbytes / (1 * MB), rel=0.01)

    def test_unlimited_flag_bypasses_bucket(self, env):
        link = Link(env, bandwidth=100 * MB, latency=0)
        bucket = TokenBucket(env, rate=1, burst=1)  # would take ~forever
        chan = Channel(env, link, limiter=bucket)

        def sender(env):
            yield from chan.send(ControlMsg("x"), category="control",
                                 limited=False)
            return env.now

        assert env.run(until=env.process(sender(env))) < 1.0

    def test_non_message_rejected(self, env, chan):
        def sender(env):
            yield from chan.send("raw string", category="x")

        with pytest.raises(NetworkError):
            env.run(until=env.process(sender(env)))

    def test_pending_count(self, env, chan):
        def sender(env):
            yield from chan.send(ControlMsg("x"), category="c")

        env.process(sender(env))
        env.run()
        assert chan.pending == 1

    @pytest.mark.parametrize("restart", [False, True])
    def test_sender_crash_mid_send_fails_the_send(self, env, restart):
        # 1 MB at 10 MB/s holds the wire for 0.1 s; the sender dies at
        # 0.05 s (and, with ``restart``, is back up before the send ends).
        host = Host(env, "src")
        chan = Channel(env, Link(env, bandwidth=10 * MB, latency=0.01),
                       sender=host)

        def sender(env):
            yield from chan.send(BlockDataMsg(np.arange(1), np.arange(1),
                                              block_size=1 * MB),
                                 category="disk")

        def crash(env):
            yield env.timeout(0.05)
            host.crash()
            if restart:
                yield env.timeout(0.01)
                host.restart()

        env.process(crash(env))
        with pytest.raises(NetworkError, match="crashed"):
            env.run(until=env.process(sender(env)))
        env.run()
        # The bytes crossed the wire, so they stay booked; nothing arrives.
        assert chan.bytes_by_category["disk"] == chan.link.bytes_sent > 0
        assert chan.pending == 0


class TestChannelPair:
    def test_only_forward_is_limited(self, env):
        fwd_link = Link(env, bandwidth=100 * MB, latency=0)
        rev_link = Link(env, bandwidth=100 * MB, latency=0)
        bucket = TokenBucket(env, rate=1 * MB)
        fwd, rev = channel_pair(env, fwd_link, rev_link, limiter=bucket)
        assert fwd.limiter is bucket
        assert not isinstance(rev.limiter, TokenBucket)
