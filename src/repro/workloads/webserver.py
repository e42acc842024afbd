"""SPECweb2005-Banking-style dynamic web server (paper §VI-C-1, Fig. 5).

The banking workload serves dynamic pages to a fixed population of
connections.  Responses are built mostly from memory (page cache, session
state), so service throughput is largely insensitive to disk contention —
that is why the paper's Figure 5 shows no visible dip during migration.
What the disk *does* see is a steady trickle of session/log writes "in
bursts", with about 25.2 % of write operations rewriting previously
written blocks (§IV-A-2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..units import KiB
from .base import Workload
from .iomodel import FreshAppendModel, MemoryDirtier, UniformModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment


#: Client requests per second against the VM.
REQUESTS_PER_SECOND = 600.0
MEAN_RESPONSE_BYTES = 120 * KiB
#: Fraction of response bytes that miss the page cache and hit disk.
DISK_READ_FRACTION = 0.02
#: Average session/log write operations per second (bursty).
WRITE_OPS_PER_SECOND = 2.5
WRITE_BLOCKS_PER_OP = 4
#: Share of log writes that rewrite a recent block (§IV-A-2: 25.2 %).
REWRITE_PROB = 0.252
#: Seconds of simulated service per loop iteration.
TICK = 0.1


class SpecWebBanking(Workload):
    """Closed population of banking clients against one VM."""

    name = "specweb"

    def __init__(
        self,
        seed: int = 0,
        #: Disk region holding site data (blocks).
        data_region: tuple[int, int] = (0, 2_000_000),
        #: Disk region receiving session/log writes (blocks).
        log_region: tuple[int, int] = (2_000_000, 120_000),
        memory_dirtier: MemoryDirtier | None = None,
    ) -> None:
        super().__init__(seed)
        self.reads = UniformModel(data_region[0], data_region[1],
                                  extent_blocks=16)
        self.writes = FreshAppendModel(
            log_region[0], log_region[1],
            extent_blocks=WRITE_BLOCKS_PER_OP,
            rewrite_prob=REWRITE_PROB)
        self.memory = memory_dirtier

    def run(self, env: "Environment") -> Generator:
        rng = self.rng
        while True:
            yield from self.domain.ensure_running()
            tick_start = env.now

            # Serve this tick's requests: response bytes come from memory;
            # a small fraction misses the cache and reads the disk.
            nreq = rng.poisson(REQUESTS_PER_SECOND * TICK)
            response_bytes = int(nreq * MEAN_RESPONSE_BYTES
                                 * rng.lognormal(0.0, 0.15))
            miss_bytes = int(response_bytes * DISK_READ_FRACTION)
            block_size = self.domain.vbd.block_size
            if miss_bytes > 0:
                # Uniform extents are fixed-size, so the number of misses
                # is known upfront; one batched draw replaces the per-read
                # draws without perturbing the random stream.
                ext_bytes = self.reads.extent_blocks * block_size
                nops = (miss_bytes + ext_bytes - 1) // ext_bytes
                firsts, counts = self.reads.next_extents(nops, rng)
                for i in range(nops):
                    yield from self.read(int(firsts[i]), int(counts[i]))

            # Ship the responses to the clients (NIC contention, if any).
            yield from self.serve_network(response_bytes)

            # Bursty session/log writes.
            nwrites = rng.poisson(WRITE_OPS_PER_SECOND * TICK)
            if nwrites:
                firsts, counts = self.writes.next_extents(nwrites, rng)
                for i in range(nwrites):
                    yield from self.write(int(firsts[i]), int(counts[i]))

            if self.memory is not None:
                yield from self.dirty_memory(self.memory, TICK)

            self.account(response_bytes)
            # Close the loop: whatever part of the tick the I/O did not
            # consume is CPU/idle time.
            elapsed = env.now - tick_start
            if elapsed < TICK:
                yield env.timeout(TICK - elapsed)
