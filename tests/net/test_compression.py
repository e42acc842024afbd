"""Unit tests for the wire-compression model."""

import numpy as np
import pytest

from repro.errors import NetworkError
from repro.net import (
    BlockDataMsg,
    Channel,
    Compressor,
    ControlMsg,
    Link,
)
from repro.sim import Environment
from repro.units import MB, MiB


@pytest.fixture
def env():
    return Environment()


class TestCompressor:
    def test_wire_size(self):
        comp = Compressor(ratio=4.0)
        assert comp.wire_nbytes(4096) == 1024
        assert comp.wire_nbytes(1) == 1  # never below one byte

    def test_empty_payload_costs_nothing_on_the_wire(self):
        # Regression: the one-byte floor used to apply to empty payloads
        # too, inventing a phantom wire byte per zero-length message.
        comp = Compressor(ratio=4.0)
        assert comp.wire_nbytes(0) == 0
        assert comp.wire_nbytes(1) == 1  # the floor still holds above zero

    def test_cpu_times(self):
        comp = Compressor(ratio=2.0, compress_throughput=100 * MiB,
                          decompress_throughput=200 * MiB)
        assert comp.compress_time(100 * MiB) == pytest.approx(1.0)
        assert comp.decompress_time(100 * MiB) == pytest.approx(0.5)

    def test_invalid_parameters(self):
        with pytest.raises(NetworkError):
            Compressor(ratio=0.5)
        with pytest.raises(NetworkError):
            Compressor(compress_throughput=0)


class TestCompressedChannel:
    def make_channel(self, env, bandwidth=10 * MB, ratio=2.0):
        return Channel(env, Link(env, bandwidth, 0),
                       compressor=Compressor(ratio=ratio))

    def test_bulk_payload_shrinks_on_wire(self, env):
        chan = self.make_channel(env)
        msg = BlockDataMsg(np.arange(100), np.arange(100))  # ~400 KiB

        def sender(env):
            yield from chan.send(msg, category="disk")

        env.run(until=env.process(sender(env)))
        assert chan.total_bytes < 0.6 * msg.wire_nbytes
        assert chan.bytes_saved > 0

    def test_small_messages_not_compressed(self, env):
        chan = self.make_channel(env)

        def sender(env):
            yield from chan.send(ControlMsg("x"), category="control")

        env.run(until=env.process(sender(env)))
        assert chan.bytes_saved == 0
        assert chan.total_bytes == ControlMsg("x").wire_nbytes

    def test_faster_on_slow_link(self, env):
        """On a network-bound path, compression cuts the transfer time."""
        msg = BlockDataMsg(np.arange(2560), np.arange(2560))  # ~10 MiB
        times = {}
        for label, compressor in (("plain", None),
                                  ("compressed", Compressor(ratio=2.0))):
            e = Environment()
            chan = Channel(e, Link(e, 5 * MB, 0), compressor=compressor)

            def sender(env):
                yield from chan.send(msg, category="disk")
                return env.now

            times[label] = e.run(until=e.process(sender(e)))
        assert times["compressed"] < 0.7 * times["plain"]

    def test_one_ratio_for_every_category(self, env):
        """Identical payloads shrink by the same ratio on the disk and the
        memory streams: the send category only labels the ledger."""
        chan = Channel(env, Link(env, 125 * MB, 0),
                       compressor=Compressor(ratio=2.0))

        def sender(env):
            for category in ("disk", "memory"):
                yield from chan.send(BlockDataMsg(np.arange(512),
                                                  np.arange(512)),
                                     category=category)

        env.run(until=env.process(sender(env)))
        assert (chan.bytes_by_category["disk"]
                == chan.bytes_by_category["memory"])

    def test_delivery_stays_fifo(self, env):
        """A small uncompressed message must not overtake a big compressed
        one that is still being decompressed at the receiver."""
        chan = Channel(env, Link(env, 1000 * MB, 0),
                       compressor=Compressor(ratio=2.0,
                                             decompress_throughput=1 * MiB))
        got = []

        def sender(env):
            yield from chan.send(
                BlockDataMsg(np.arange(512), np.arange(512)),
                category="disk")
            yield from chan.send(ControlMsg("after"), category="control")

        def receiver(env):
            for _ in range(2):
                msg = yield chan.recv()
                got.append(type(msg).__name__)

        env.process(sender(env))
        env.process(receiver(env))
        env.run()
        assert got == ["BlockDataMsg", "ControlMsg"]


class TestCompressedMigration:
    def test_compression_helps_rate_limited_migration(self, make_bed):
        times = {}
        from repro.units import MB as _MB

        for label, compress in (("plain", False), ("compressed", True)):
            bed = make_bed()
            cfg = bed.config.replace(rate_limit=4 * _MB, compress=compress)
            report = bed.migrate(cfg)
            assert report.consistency_verified
            times[label] = report.total_migration_time
        assert times["compressed"] < 0.7 * times["plain"]

    def test_compression_moves_less_data(self, make_bed):
        bed = make_bed()
        cfg = bed.config.replace(compress=True)
        report = bed.migrate(cfg)
        assert report.consistency_verified
        # ~8 MiB disk + memory, compressed 2:1 on the bulk categories.
        assert report.migrated_bytes < 0.65 * (bed.vbd.nbytes
                                               + bed.domain.memory.nbytes)

