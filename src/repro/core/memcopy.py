"""Iterative memory pre-copy (Xen-style, paper §II-A / Fig. 2).

The paper performs memory pre-copy *after* disk pre-copy ("simultaneous or
premature memory pre-copy is useless" — the long disk copy would dirty a
large amount of memory again).  Rounds work like Clark et al.'s scheme:
round 0 transfers every page, each later round the pages dirtied during
the previous round, until the dirty set is small, the round cap is hit, or
the rounds stop converging.  The residual dirty pages are shipped while
the VM is frozen.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from ..vm.memory import GuestMemory
from .config import MigrationConfig
from .metrics import IterationStats
from .transfer import PageStreamer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment

#: Hard cap on memory pre-copy rounds (Xen uses a similar cap).
MAX_MEM_ROUNDS = 30


class MemoryPreCopier:
    """Runs the iterative memory pre-copy for one migration.

    After :meth:`run` returns, dirty logging is **left enabled** on the
    source memory; the final dirty set is harvested during freeze-and-copy
    via :meth:`GuestMemory.stop_logging`.
    """

    def __init__(
        self,
        env: "Environment",
        memory: GuestMemory,
        streamer: PageStreamer,
        config: MigrationConfig,
    ) -> None:
        self.env = env
        self.memory = memory
        self.streamer = streamer
        self.config = config

    def run(self) -> Generator:
        """Execute the rounds; returns ``list[IterationStats]``."""
        import numpy as np

        cfg = self.config
        self.memory.start_logging()

        indices = np.arange(self.memory.npages, dtype=np.int64)
        rounds: list[IterationStats] = []
        round_no = 1
        while True:
            started = self.env.now
            rd_span = self.env.tracer.begin(f"round:{round_no}",
                                            category="iteration",
                                            pages=int(indices.size))
            stats = yield from self.streamer.stream(indices, category="memory",
                                                    limited=True)
            ended = self.env.now
            dirty_now = self.memory.dirty_count()
            record = IterationStats(
                index=round_no,
                units_sent=stats.units_sent,
                bytes_sent=stats.bytes_sent,
                started_at=started,
                ended_at=ended,
                dirty_at_end=dirty_now,
            )
            rounds.append(record)
            self.env.tracer.end(rd_span, units_sent=stats.units_sent,
                                bytes_sent=stats.bytes_sent,
                                dirty_at_end=dirty_now)
            self.env.metrics.gauge("memcopy.dirty_pages").set(dirty_now)

            if not self._should_continue(record, round_no):
                break

            indices = self.memory.swap_dirty().dirty_indices()
            round_no += 1

        return rounds

    def _should_continue(self, record: IterationStats, round_no: int) -> bool:
        cfg = self.config
        if round_no >= MAX_MEM_ROUNDS:
            return False
        if record.dirty_at_end <= cfg.mem_dirty_threshold_pages:
            return False
        # Not converging: this round dirtied at least as much as it sent.
        if record.dirty_at_end >= record.units_sent and round_no > 1:
            return False
        return True
