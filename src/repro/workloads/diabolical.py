"""Bonnie++-style diabolical I/O server (paper §VI-C-3, Fig. 6).

Bonnie++ cycles through hard-drive/file-system tests over one large file:
per-character output (putc), block output (write(2)), rewrite
(read-modify-write), per-character input (getc), block input, and random
seeks.  It keeps the disk saturated, dirtying blocks faster than almost
any transfer can drain — the paper's worst case.  The throughput of each
phase is recorded as its own series, matching Figure 6's four curves.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..units import KiB, MiB
from .base import Workload
from .iomodel import MemoryDirtier, SequentialModel, UniformModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment


#: Per-character phases are CPU-bound: their throughput caps.
PUTC_RATE = 46 * MiB
GETC_RATE = 50 * MiB
#: I/O sizes.  Per-character phases flush in smaller buffered ops than
#: the 1 MiB block phases (this ratio also sets the fresh-vs-rewrite op
#: mix the §IV-A-2 locality study measures).
CHAR_OP_BYTES = 128 * KiB
BLOCK_OP_BYTES = 1 * MiB
#: Fraction of random seeks that write the block back (Bonnie rewrites
#: ~10 % of seeked blocks).
SEEK_WRITE_FRACTION = 0.1


class BonniePlusPlus(Workload):
    """Phased disk benchmark saturating the spindle."""

    name = "bonnie"

    def __init__(
        self,
        seed: int = 0,
        #: Test-file region (blocks).  1 GiB = 262144 blocks of 4 KiB,
        #: Bonnie's default of 2x RAM for a 512 MiB guest.
        file_region: tuple[int, int] = (500_000, 262_144),
        seeks_per_pass: int = 2_000,
        memory_dirtier: MemoryDirtier | None = None,
    ) -> None:
        super().__init__(seed)
        self.file_region = file_region
        self.seeks_per_pass = seeks_per_pass
        self.memory = memory_dirtier
        #: Completed full benchmark passes.
        self.passes = 0

    # -- phase helpers -------------------------------------------------------

    def _seq(self, extent_bytes: int) -> SequentialModel:
        block_size = self.domain.vbd.block_size
        return SequentialModel(self.file_region[0], self.file_region[1],
                               extent_blocks=max(extent_bytes // block_size, 1))

    def _phase_sequential(self, env, series: str, extent_bytes: int,
                          do_read: bool, do_write: bool,
                          cpu_rate: float | None) -> Generator:
        """One pass over the file; records throughput under ``series``."""
        model = self._seq(extent_bytes)
        steps = self.file_region[1] // model.extent_blocks
        block_size = self.domain.vbd.block_size
        # The sequential walk consumes no randomness, so the whole pass
        # can be drawn upfront in one vectorized call.
        firsts, counts = model.next_extents(steps, self.rng)
        for i in range(steps):
            yield from self.domain.ensure_running()
            start = env.now
            first, nblocks = int(firsts[i]), int(counts[i])
            if do_read:
                yield from self.read(first, nblocks)
            if do_write:
                yield from self.write(first, nblocks)
            nbytes = nblocks * block_size
            self.account(nbytes, series=series)
            if self.memory is not None:
                yield from self.dirty_memory(self.memory, env.now - start)
            if cpu_rate is not None:
                # Per-character processing throttles the op below disk speed.
                budget = nbytes / cpu_rate
                elapsed = env.now - start
                if elapsed < budget:
                    yield env.timeout(budget - elapsed)

    def _phase_seeks(self, env) -> Generator:
        block_size = self.domain.vbd.block_size
        model = UniformModel(self.file_region[0], self.file_region[1],
                             extent_blocks=1)
        for _ in range(self.seeks_per_pass):
            yield from self.domain.ensure_running()
            first, nblocks = model.next_extent(self.rng)
            yield from self.read(first, nblocks)
            if self.rng.random() < SEEK_WRITE_FRACTION:
                yield from self.write(first, nblocks)
            self.account(nblocks * block_size, series="seeks")

    # -- main loop -------------------------------------------------------

    def run(self, env: "Environment") -> Generator:
        while True:
            self.fire_pass_start(self.passes)
            # putc: sequential per-character write (CPU-throttled).
            yield from self._phase_sequential(
                env, "putc", CHAR_OP_BYTES,
                do_read=False, do_write=True, cpu_rate=PUTC_RATE)
            # write(2): sequential block rewrite of the same file.
            yield from self._phase_sequential(
                env, "write", BLOCK_OP_BYTES,
                do_read=False, do_write=True, cpu_rate=None)
            # rewrite: read-modify-write.
            yield from self._phase_sequential(
                env, "rewrite", BLOCK_OP_BYTES,
                do_read=True, do_write=True, cpu_rate=None)
            # getc: sequential per-character read (CPU-throttled).
            yield from self._phase_sequential(
                env, "getc", CHAR_OP_BYTES,
                do_read=True, do_write=False, cpu_rate=GETC_RATE)
            # random seeks.
            yield from self._phase_seeks(env)
            self.passes += 1
