"""Linux-kernel-build workload (paper §IV-A-2 locality study).

``make`` over a kernel tree reads many small sources and writes many small
object files; the paper measured that about 11 % of its write operations
rewrite previously written blocks.  The build alternates compile bursts
(reads + object writes) with link steps (larger writes rewriting outputs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from .base import Workload
from .iomodel import FreshAppendModel, MemoryDirtier, UniformModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment


class KernelBuild(Workload):
    """Compile-burst workload with 11 % write locality."""

    name = "kernelbuild"

    def __init__(
        self,
        seed: int = 0,
        #: Compile steps per second (one object file each).
        compiles_per_second: float = 30.0,
        #: Source-tree region read during compiles (blocks).
        source_region: tuple[int, int] = (0, 200_000),
        #: Build-output region (blocks).
        output_region: tuple[int, int] = (200_000, 100_000),
        object_blocks: int = 4,       #: ~16 KiB object files
        source_read_blocks: int = 8,  #: ~32 KiB of headers+source per step
        rewrite_prob: float = 0.11,
        tick: float = 0.1,
        memory_dirtier: MemoryDirtier | None = None,
    ) -> None:
        super().__init__(seed)
        self.compiles_per_second = compiles_per_second
        self.tick = tick
        self.reads = UniformModel(source_region[0], source_region[1],
                                  extent_blocks=source_read_blocks)
        self.writes = FreshAppendModel(output_region[0], output_region[1],
                                       extent_blocks=object_blocks,
                                       rewrite_prob=rewrite_prob)
        self.memory = memory_dirtier

    def run(self, env: "Environment") -> Generator:
        rng = self.rng
        block_size = None
        while True:
            yield from self.domain.ensure_running()
            if block_size is None:
                block_size = self.domain.vbd.block_size
            start = env.now
            nsteps = rng.poisson(self.compiles_per_second * self.tick)
            for _ in range(nsteps):
                rf, rn = self.reads.next_extent(rng)
                yield from self.read(rf, rn)
                wf, wn = self.writes.next_extent(rng)
                yield from self.write(wf, wn)
                self.account(wn * block_size)
            if self.memory is not None:
                yield from self.dirty_memory(self.memory, self.tick)
            elapsed = env.now - start
            if elapsed < self.tick:
                yield env.timeout(self.tick - elapsed)


def default_kernelbuild_memory(npages: int = 131_072) -> MemoryDirtier:
    """Compilers churn memory quickly over a moderate WSS."""
    return MemoryDirtier(npages, wss_pages=8_000, pages_per_second=4_000.0,
                         hot_prob=0.85)
