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


#: Compile steps per second (one object file each).
COMPILES_PER_SECOND = 30.0
OBJECT_BLOCKS = 4       #: ~16 KiB object files
SOURCE_READ_BLOCKS = 8  #: ~32 KiB of headers+source per step
#: Share of object writes that rewrite a recent block (§IV-A-2: 11 %).
REWRITE_PROB = 0.11
#: Seconds of simulated build per loop iteration.
TICK = 0.1


class KernelBuild(Workload):
    """Compile-burst workload with 11 % write locality."""

    name = "kernelbuild"

    def __init__(
        self,
        seed: int = 0,
        #: Source-tree region read during compiles (blocks).
        source_region: tuple[int, int] = (0, 200_000),
        #: Build-output region (blocks).
        output_region: tuple[int, int] = (200_000, 100_000),
        memory_dirtier: MemoryDirtier | None = None,
    ) -> None:
        super().__init__(seed)
        self.reads = UniformModel(source_region[0], source_region[1],
                                  extent_blocks=SOURCE_READ_BLOCKS)
        self.writes = FreshAppendModel(output_region[0], output_region[1],
                                       extent_blocks=OBJECT_BLOCKS,
                                       rewrite_prob=REWRITE_PROB)
        self.memory = memory_dirtier

    def run(self, env: "Environment") -> Generator:
        rng = self.rng
        block_size = None
        while True:
            yield from self.domain.ensure_running()
            if block_size is None:
                block_size = self.domain.vbd.block_size
            start = env.now
            nsteps = rng.poisson(COMPILES_PER_SECOND * TICK)
            for _ in range(nsteps):
                rf, rn = self.reads.next_extent(rng)
                yield from self.read(rf, rn)
                wf, wn = self.writes.next_extent(rng)
                yield from self.write(wf, wn)
                self.account(wn * block_size)
            if self.memory is not None:
                yield from self.dirty_memory(self.memory, TICK)
            elapsed = env.now - start
            if elapsed < TICK:
                yield env.timeout(TICK - elapsed)
