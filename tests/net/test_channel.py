"""Unit tests for Channel and message accounting."""

import numpy as np
import pytest

from repro.errors import NetworkError
from repro.net import (
    HEADER_NBYTES,
    BitmapMsg,
    BlockDataMsg,
    Channel,
    Compressor,
    ControlMsg,
    CPUStateMsg,
    DeltaMsg,
    Link,
    MemoryPagesMsg,
    PullRequestMsg,
    TokenBucket,
)
from repro.sim import Environment, Process
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


#: Processed events one delivered message costs beyond its send: the
#: URGENT launch event at the send's end and the landing timeout.  The
#: deposit into the mailbox makes no event of its own.
EVENTS_PER_DELIVERY = 2


class TestDelivery:
    def test_arrival_is_clamped_to_the_previous_arrival(self, env):
        latency = 0.01
        comp = Compressor(compress_throughput=1000 * MB,
                          decompress_throughput=10 * MB)
        chan = Channel(env, Link(env, bandwidth=100 * MB, latency=latency),
                       compressor=comp)
        big = lambda: BlockDataMsg(np.arange(64), np.arange(64))  # noqa: E731
        # A large message decompresses for ~26 ms, so the control message
        # and the small compressed one behind it are clamped to its
        # arrival; the last one, sent a second later, is not.
        msgs = [big(), ControlMsg("ctl"),
                BlockDataMsg(np.arange(2), np.arange(2)), big()]
        ends, decompress = [], []

        def sender(env):
            for i, msg in enumerate(msgs):
                if i == len(msgs) - 1:
                    yield env.timeout(1.0)
                yield from chan.send(msg, category="disk")
                ends.append(env.now)
                payload = msg.payload_nbytes
                decompress.append(comp.decompress_time(payload)
                                  if payload >= chan.COMPRESS_THRESHOLD
                                  else 0.0)

        got = []

        def receiver(env):
            for _ in msgs:
                msg = yield chan.recv()
                got.append((msg, env.now))

        env.process(sender(env))
        env.process(receiver(env))
        env.run()
        assert [msg for msg, _ in got] == msgs
        floor, expected, clamped = 0.0, [], []
        for end, extra in zip(ends, decompress):
            unclamped = end + latency + extra
            clamped.append(unclamped < floor)
            floor = max(unclamped, floor)
            expected.append(floor)
        assert clamped == [False, True, True, False]
        assert [at for _, at in got] == pytest.approx(expected, abs=1e-12)

    def test_zero_latency_lands_in_the_step_after_the_send(self, env):
        chan = Channel(env, Link(env, bandwidth=100 * MB, latency=0))
        ends = []

        def sender(env):
            yield from chan.send(ControlMsg("now"))
            ends.append(env.now)

        env.process(sender(env))
        while not ends:
            env.step()
        assert chan.pending == 0
        # The next event due is the send's URGENT launch event, and it
        # deposits the message itself: no landing timeout at ``now``.
        env.step()
        assert chan.pending == 1 and env.now == ends[0]

    def test_delivery_costs_fixed_events_and_starts_no_process(
            self, monkeypatch):
        started = []
        init = Process.__init__

        def counting_init(self, *args, **kwargs):
            started.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Process, "__init__", counting_init)
        n = 8

        def run(through_channel):
            env = Environment()
            link = Link(env, bandwidth=100 * MB, latency=0.01)
            chan = Channel(env, link)

            def sender(env):
                for i in range(n):
                    msg = ControlMsg(f"m{i}")
                    if through_channel:
                        yield from chan.send(msg)
                    else:
                        yield from link.transmit(msg.wire_nbytes)

            env.process(sender(env))
            env.run()
            return env.events_processed, chan.pending

        wire_only, _ = run(False)
        assert len(started) == 1
        events, delivered = run(True)
        assert delivered == n
        assert events - wire_only == n * EVENTS_PER_DELIVERY
        assert len(started) == 2  # the sender only

    def test_deposit_into_an_idle_mailbox_makes_no_event(self, env):
        chan = Channel(env, Link(env, bandwidth=100 * MB, latency=0.01))
        ends = []

        def sender(env):
            yield from chan.send(ControlMsg("idle"))
            ends.append(env.now)

        env.process(sender(env))
        while not chan.pending:
            eid = env._eid
            env.step()
        # The step that deposited was the landing timeout's; it handed out
        # no event id and left nothing behind on the queue.
        assert env.now == pytest.approx(ends[0] + 0.01)
        assert env._eid == eid and env.peek() == float("inf")

    def test_deposit_wakes_waiting_receivers_at_now_in_send_order(self, env):
        latency = 0.01
        chan = Channel(env, Link(env, bandwidth=100 * MB, latency=latency))
        msgs = [ControlMsg(f"m{i}") for i in range(3)]
        ends, got = [], []

        def receiver(env, k):
            msg = yield chan.recv()
            got.append((k, msg, env.now))

        def sender(env):
            for msg in msgs:
                yield from chan.send(msg)
                ends.append(env.now)

        for k in range(len(msgs)):
            env.process(receiver(env, k))
        env.process(sender(env))
        env.run()
        assert chan.pending == 0
        # Each waiting recv() resumes at its message's arrival: the first
        # waiter with the first message sent, and so on.
        assert [(k, msg) for k, msg, _ in got] == list(enumerate(msgs))
        assert [at for *_, at in got] == pytest.approx(
            [end + latency for end in ends], abs=1e-12)


class TestChannelPair:
    def test_only_forward_is_limited(self, make_bed):
        """A migration's (source→dest, dest→source) pair: only the bulk
        forward direction is paced; the backward one carries small pull
        requests and acks."""
        bed = make_bed()
        report = bed.migrate(bed.config.replace(rate_limit=50 * MB))
        assert report.consistency_verified
        migration = bed.migrator.migrations[-1]
        assert isinstance(migration.fwd.limiter, TokenBucket)
        assert not isinstance(migration.rev.limiter, TokenBucket)
        assert migration.fwd.name == "mig:source->destination"
        assert migration.rev.name == "mig:destination->source"