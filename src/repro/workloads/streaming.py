"""Low-latency video streaming server (paper §VI-C-2).

A Samba share serves a ~210 MB video to one client at under 500 kbit/s.
The access pattern is a slow sequential read with a rare log write — the
write rate is so low that only two pre-copy iterations are needed and a
handful of blocks reach post-copy.  The interesting metric is *latency*:
playback is fluent iff every read completes well before the player's
buffer drains, which this workload records per read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..units import KiB
from .base import Workload
from .iomodel import FreshAppendModel, MemoryDirtier, SequentialModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment


#: Client consumption rate in bytes/second (< 500 kbit/s).
STREAM_RATE = 60 * KiB
#: Bytes fetched per read (player buffer refill).
READ_CHUNK = 64 * KiB
#: Seconds between access-log writes.
LOG_INTERVAL = 1.3
#: Playback stalls if a read takes longer than this (player buffer).
STALL_THRESHOLD = 2.0


class VideoStreamServer(Workload):
    """Streams a video file sequentially at a fixed bit rate."""

    name = "video"

    def __init__(
        self,
        seed: int = 0,
        #: Video file location (blocks).
        video_region: tuple[int, int] = (100_000, 53_760),  # ~210 MiB
        #: Log file location (blocks).
        log_region: tuple[int, int] = (4_000_000, 4_096),
        memory_dirtier: MemoryDirtier | None = None,
    ) -> None:
        super().__init__(seed)
        self.video = SequentialModel(video_region[0], video_region[1],
                                     extent_blocks=max(READ_CHUNK // (4 * KiB), 1))
        self.log = FreshAppendModel(log_region[0], log_region[1],
                                    extent_blocks=1, rewrite_prob=0.05)
        self.memory = memory_dirtier
        #: Reads that exceeded the stall threshold (observable glitches).
        self.stalls = 0

    #: Sequential video extents prefetched per batched draw.
    PREFETCH_EXTENTS = 16

    def run(self, env: "Environment") -> Generator:
        rng = self.rng
        next_log = env.now + LOG_INTERVAL
        period = READ_CHUNK / STREAM_RATE
        # The video walk is deterministic (no RNG), so extents can be
        # drawn in batches ahead of use without changing anything.
        batch_firsts = batch_counts = None
        bpos = 0
        while True:
            yield from self.domain.ensure_running()
            start = env.now

            if batch_firsts is None or bpos == batch_firsts.size:
                batch_firsts, batch_counts = self.video.next_extents(
                    self.PREFETCH_EXTENTS, rng)
                bpos = 0
            first = int(batch_firsts[bpos])
            nblocks = int(batch_counts[bpos])
            bpos += 1
            yield from self.read(first, nblocks)
            yield from self.serve_network(READ_CHUNK)
            latency = env.now - start
            self.record("read_latency", latency)
            if latency > STALL_THRESHOLD:
                self.stalls += 1
            self.account(READ_CHUNK)

            if env.now >= next_log:
                lf, ln = self.log.next_extent(rng)
                yield from self.write(lf, ln)
                next_log = env.now + LOG_INTERVAL

            if self.memory is not None:
                yield from self.dirty_memory(self.memory, period)

            elapsed = env.now - start
            if elapsed < period:
                yield env.timeout(period - elapsed)
