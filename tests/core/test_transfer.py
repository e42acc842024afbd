"""Unit tests for the pipelined block/page streamers."""

import numpy as np
import pytest

from repro.core import BlockStreamer, MigrationConfig, PageStreamer
from repro.core import transfer
from repro.core.transfer import PIPELINE_DEPTH
from repro.net import Channel, Link
from repro.sim import Environment
from repro.storage import GenerationClock, PhysicalDisk, VirtualBlockDevice
from repro.units import MB, MiB
from repro.vm import GuestMemory


@pytest.fixture
def env():
    return Environment()


def make_disk_pair(env, nblocks=1000, data=False):
    clock = GenerationClock()
    src = VirtualBlockDevice(nblocks, clock=clock, data=data)
    dst = VirtualBlockDevice(nblocks, clock=clock, data=data)
    src_disk = PhysicalDisk(env, 100 * MiB, 100 * MiB, 0)
    dst_disk = PhysicalDisk(env, 100 * MiB, 100 * MiB, 0)
    return src, dst, src_disk, dst_disk, clock


class TestBlockStreamer:
    def test_transfers_all_blocks(self, env):
        src, dst, sd, dd, _ = make_disk_pair(env)
        src.write(0, 1000)
        chan = Channel(env, Link(env, 125 * MB, 0))
        streamer = BlockStreamer(env, sd, src, dd, dst, chan,
                                 MigrationConfig(chunk_blocks=100))

        def proc(env):
            return (yield from streamer.stream(np.arange(1000)))

        stats = env.run(until=env.process(proc(env)))
        assert stats.units_sent == 1000
        assert stats.bytes_sent > 1000 * 4096
        assert dst.identical_to(src)

    def test_empty_indices_is_noop(self, env):
        src, dst, sd, dd, _ = make_disk_pair(env)
        chan = Channel(env, Link(env, 125 * MB, 0))
        streamer = BlockStreamer(env, sd, src, dd, dst, chan,
                                 MigrationConfig())

        def proc(env):
            return (yield from streamer.stream(np.empty(0, dtype=np.int64)))

        stats = env.run(until=env.process(proc(env)))
        assert stats.units_sent == 0
        assert env.now == 0.0

    def test_rate_is_bottlenecked_not_summed(self, env):
        """Pipelining: total time ~ slowest stage, not the sum of stages."""
        src, dst, sd, dd, _ = make_disk_pair(env, nblocks=2560)
        nbytes = 2560 * 4096  # 10 MiB
        chan = Channel(env, Link(env, 100 * MiB, 0))
        streamer = BlockStreamer(env, sd, src, dd, dst, chan,
                                 MigrationConfig(chunk_blocks=256))

        def proc(env):
            yield from streamer.stream(np.arange(2560))
            return env.now

        elapsed = env.run(until=env.process(proc(env)))
        one_stage = nbytes / (100 * MiB)
        # Must be close to a single stage's time (pipelined), far below 3x.
        assert elapsed < 1.6 * one_stage

    def test_byte_mode_content_travels(self, env):
        src, dst, sd, dd, _ = make_disk_pair(env, nblocks=64, data=True)
        src.write(0, 64)
        chan = Channel(env, Link(env, 125 * MB, 0))
        streamer = BlockStreamer(env, sd, src, dd, dst, chan,
                                 MigrationConfig(chunk_blocks=16))

        def proc(env):
            yield from streamer.stream(np.arange(64))

        env.run(until=env.process(proc(env)))
        assert np.array_equal(dst.read_data(0, 64), src.read_data(0, 64))

    def test_subset_transfer(self, env):
        src, dst, sd, dd, _ = make_disk_pair(env)
        src.write(0, 1000)
        chan = Channel(env, Link(env, 125 * MB, 0))
        streamer = BlockStreamer(env, sd, src, dd, dst, chan,
                                 MigrationConfig(chunk_blocks=64))
        subset = np.array([1, 5, 500, 999])

        def proc(env):
            yield from streamer.stream(subset)

        env.run(until=env.process(proc(env)))
        assert dst.lagging_blocks(src).size == 1000 - 4


class TestPageStreamer:
    def test_transfers_pages(self, env):
        clock = GenerationClock()
        src_mem = GuestMemory(256, clock=clock)
        dst_mem = GuestMemory(256, clock=clock)
        src_mem.touch(np.arange(256))
        chan = Channel(env, Link(env, 125 * MB, 0))
        streamer = PageStreamer(env, src_mem, dst_mem, chan,
                                MigrationConfig(mem_chunk_pages=64))

        def proc(env):
            return (yield from streamer.stream(np.arange(256)))

        stats = env.run(until=env.process(proc(env)))
        assert stats.units_sent == 256
        assert dst_mem.identical_to(src_mem)

    def test_no_destination_memory_allowed(self, env):
        src_mem = GuestMemory(64)
        chan = Channel(env, Link(env, 125 * MB, 0))
        streamer = PageStreamer(env, src_mem, None, chan, MigrationConfig())

        def proc(env):
            return (yield from streamer.stream(np.arange(64)))

        stats = env.run(until=env.process(proc(env)))
        assert stats.units_sent == 64

    def test_empty_pages_noop(self, env):
        src_mem = GuestMemory(64)
        chan = Channel(env, Link(env, 125 * MB, 0))
        streamer = PageStreamer(env, src_mem, None, chan, MigrationConfig())

        def proc(env):
            return (yield from streamer.stream(np.empty(0, dtype=np.int64)))

        stats = env.run(until=env.process(proc(env)))
        assert stats.units_sent == 0


class TestSplitChunks:
    def test_zero_length_payload_yields_no_chunks(self):
        from repro.core.transfer import split_chunks

        assert split_chunks(np.empty(0, dtype=np.int64), 128) == []

    def test_chunk_size_larger_than_payload(self):
        from repro.core.transfer import split_chunks

        indices = np.arange(10)
        chunks = split_chunks(indices, 1000)
        assert len(chunks) == 1
        np.testing.assert_array_equal(chunks[0], indices)

    def test_non_divisible_tail_matches_array_split(self):
        from repro.core.transfer import split_chunks

        for n, size in [(10, 3), (1000, 128), (7, 7), (8, 7), (1, 4),
                        (129, 128), (255, 128)]:
            indices = np.arange(n)
            nchunks = (n + size - 1) // size
            expected = np.array_split(indices, nchunks)
            got = split_chunks(indices, size)
            assert len(got) == len(expected)
            for mine, ref in zip(got, expected):
                np.testing.assert_array_equal(mine, ref)
            # Every element appears exactly once, in order.
            np.testing.assert_array_equal(np.concatenate(got), indices)
            # No chunk exceeds the requested size.
            assert max(len(c) for c in got) <= size

    def test_chunks_are_views_not_copies(self):
        from repro.core.transfer import split_chunks

        indices = np.arange(16)
        for chunk in split_chunks(indices, 4):
            assert chunk.base is indices


class TestStriping:
    """Streamer-level multifd behaviour: lanes are plain channels over the
    base channel's link."""

    def _stream(self, env, nblocks, *, nlanes):
        src, dst, sd, dd, _ = make_disk_pair(env, nblocks=nblocks)
        src.write(0, nblocks)
        link = Link(env, 125 * MB, 0)
        chan = Channel(env, link)
        lanes = [Channel(env, link, name=f"fd{i}") for i in range(nlanes)]
        cfg = MigrationConfig(chunk_blocks=64)
        streamer = BlockStreamer(env, sd, src, dd, dst, chan, cfg,
                                 lanes=lanes)

        def proc(env):
            return (yield from streamer.stream(np.arange(nblocks)))

        stats = env.run(until=env.process(proc(env)))
        assert dst.identical_to(src)
        return stats, lanes

    @pytest.mark.parametrize("depth", [1, PIPELINE_DEPTH, 8])
    @pytest.mark.parametrize("nchannels", [2, 4])
    def test_pipeline_depth_times_multifd(self, depth, nchannels,
                                          monkeypatch):
        """Every fan-out moves all blocks and spreads traffic across every
        lane at the shipped depth of 2 and at the edges around it (each
        lane buffer is depth-bounded, so a slow lane backpressures the
        shared reader without deadlock)."""
        assert PIPELINE_DEPTH == 2
        monkeypatch.setattr(transfer, "PIPELINE_DEPTH", depth)
        env = Environment()
        stats, lanes = self._stream(env, 1000, nlanes=nchannels)
        assert stats.units_sent == 1000
        assert all(chan.total_bytes > 0 for chan in lanes)
        assert sum(chan.total_bytes for chan in lanes) == stats.bytes_sent

    def test_striped_byte_total_matches_single_channel(self):
        baseline, _ = self._stream(Environment(), 1000, nlanes=0)
        striped, _ = self._stream(Environment(), 1000, nlanes=4)
        assert striped.bytes_sent == baseline.bytes_sent
        assert striped.units_sent == baseline.units_sent

    def test_single_chunk_batch_skips_striping(self):
        """A batch that fits one chunk rides the base channel even when
        lanes are attached (striping one chunk would only add overhead)."""
        env = Environment()
        src, dst, sd, dd, _ = make_disk_pair(env, nblocks=32)
        src.write(0, 32)
        link = Link(env, 125 * MB, 0)
        chan = Channel(env, link)
        lanes = [Channel(env, link, name=f"fd{i}") for i in range(4)]
        streamer = BlockStreamer(env, sd, src, dd, dst, chan,
                                 MigrationConfig(chunk_blocks=64),
                                 lanes=lanes)

        def proc(env):
            return (yield from streamer.stream(np.arange(32)))

        stats = env.run(until=env.process(proc(env)))
        assert stats.units_sent == 32
        assert all(lane.total_bytes == 0 for lane in lanes)
        assert chan.total_bytes == stats.bytes_sent

    @pytest.mark.parametrize("kind", ["blocks", "pages"])
    def test_chunk_k_rides_lane_k_mod_n(self, kind):
        """Round-robin striping: chunk ``k`` of a batch goes out on lane
        ``k % N``, so with 7 chunks over 3 lanes the lanes carry chunks
        {0, 3, 6}, {1, 4} and {2, 5}."""
        env = Environment()
        link = Link(env, 125 * MB, 0)
        chan = Channel(env, link)
        lanes = [Channel(env, link, name=f"fd{i}") for i in range(3)]
        seen = {lane.name: [] for lane in lanes}
        for lane in lanes:
            def spy(msg, _send=lane.send, _name=lane.name, **kwargs):
                seen[_name].append(int(msg.indices[0]) // 10)
                return (yield from _send(msg, **kwargs))
            lane.send = spy
        if kind == "blocks":
            src, dst, sd, dd, _ = make_disk_pair(env, nblocks=70)
            src.write(0, 70)
            streamer = BlockStreamer(env, sd, src, dd, dst, chan,
                                     MigrationConfig(chunk_blocks=10),
                                     lanes=lanes)
        else:
            src_mem = GuestMemory(70)
            streamer = PageStreamer(env, src_mem, GuestMemory(70), chan,
                                    MigrationConfig(mem_chunk_pages=10),
                                    lanes=lanes)

        def proc(env):
            return (yield from streamer.stream(np.arange(70)))

        stats = env.run(until=env.process(proc(env)))
        assert stats.units_sent == 70
        assert seen == {"fd0": [0, 3, 6], "fd1": [1, 4], "fd2": [2, 5]}
        assert chan.total_bytes == 0

    @pytest.mark.parametrize("nlanes", [0, 4])
    def test_unconfirmed_is_exactly_what_never_landed(self, nlanes):
        """After a mid-batch link failure the streamer names exactly the
        blocks the destination never imported — on the single channel
        (a FIFO prefix) and across interleaved lanes alike."""
        from repro.errors import NetworkError
        from repro.faults import FaultInjector, FaultPlan
        from repro.net import DuplexLink

        env = Environment()
        src, dst, sd, dd, _ = make_disk_pair(env, nblocks=1000)
        src.write(0, 1000)
        duplex = DuplexLink(env, 125 * MB, 50e-6)
        plan = FaultPlan(send_timeout=0.01).blackout(duration=1.0, at=0.015)
        FaultInjector(env, plan).attach(duplex)
        chan = Channel(env, duplex.forward)
        lanes = [Channel(env, duplex.forward, name=f"fd{i}")
                 for i in range(nlanes)]
        streamer = BlockStreamer(env, sd, src, dd, dst, chan,
                                 MigrationConfig(chunk_blocks=64),
                                 lanes=lanes)
        proc = env.process(streamer.stream(np.arange(1000)))
        with pytest.raises(NetworkError):
            env.run(until=proc)
        lost = np.sort(streamer.unconfirmed_indices())
        assert 0 < lost.size < 1000
        np.testing.assert_array_equal(lost, dst.lagging_blocks(src))
