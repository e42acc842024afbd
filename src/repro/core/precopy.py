"""Iterative local-disk pre-copy (paper §IV-A-1 and §IV-A-3).

The first iteration copies every block (or, for incremental migration,
only the blocks the IM bitmap marks).  Each later iteration retransfers
the blocks dirtied during the previous one, tracked by the block-bitmap
that ``blkback`` maintains.  Iteration stops when any of:

* the dirty set is small enough to hand to post-copy,
* the iteration cap is reached ("avoid endless migration"),
* the storage dirty rate exceeds the achieved transfer rate (proactive
  stop — more iterations cannot converge).

After :meth:`run` returns, the ``"precopy"`` tracking bitmap is **left
registered** on the source driver: it keeps accumulating dirt through the
memory pre-copy and is harvested at freeze-and-copy as the bitmap shipped
to the destination.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

import numpy as np

from ..bitmap import make_bitmap, union_indices
from ..errors import NetworkError
from ..storage.blkback import BackendDriver
from .config import MigrationConfig
from .converge import MAX_ITERATIONS as AUTO_CONVERGE_MAX_ITERATIONS
from .metrics import IterationStats
from .transfer import BlockStreamer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment
    from ..vm.host import Host

#: Name under which the pre-copy dirty bitmap registers on the driver.
TRACKING_NAME = "precopy"


class DiskPreCopier:
    """Runs the iterative storage pre-copy for one migration."""

    def __init__(
        self,
        env: "Environment",
        source: "Host",
        driver: BackendDriver,
        streamer: BlockStreamer,
        config: MigrationConfig,
        initial_indices: Optional[np.ndarray] = None,
        resume: bool = False,
        store=None,
        converge=None,
    ) -> None:
        self.env = env
        #: The host that owns ``driver``.  A crash of it drops the
        #: tracking bitmap, so the run fails with
        #: :class:`~repro.errors.NetworkError` before its next bitmap swap.
        self.source = source
        self.driver = driver
        self.streamer = streamer
        self.config = config
        #: Optional :class:`~repro.core.converge.AutoConvergeController`:
        #: consulted at every iteration boundary; while it can still
        #: escalate the guest write throttle, the proactive stop is
        #: deferred in favour of throttling (``auto_converge`` config).
        self.converge = converge
        #: Optional :class:`~repro.persist.store.BitmapStore`: when set,
        #: every tracking bitmap this pre-copy registers is wrapped in a
        #: :class:`~repro.persist.tracked.PersistentBitmap` so guest
        #: writes journal to stable storage as they are marked.
        self.store = store
        #: True when the resume path adopted a bitmap rebuilt by crash
        #: recovery rather than one that survived in memory.
        self.adopted_recovered = False
        #: Blocks of the first iteration; None = the whole device (primary
        #: migration), an array = the IM dirty set (§V).
        self.initial_indices = initial_indices
        #: True when retrying a failed migration: adopt the surviving
        #: ``"precopy"`` bitmap (atomically swapped for a fresh one, so no
        #: write during the retry handshake is ever missed) and start from
        #: its dirty set instead of the whole device.
        self.resume = resume

    def _fresh_bitmap(self):
        cfg = self.config
        bitmap = make_bitmap(self.driver.vbd.nblocks, cfg.bitmap_layout,
                             leaf_bits=cfg.leaf_bits)
        if self.store is not None:
            from ..persist.tracked import PersistentBitmap

            bitmap = PersistentBitmap(bitmap, self.store)
        return bitmap

    def run(self) -> Generator:
        """Execute the iterations; returns ``list[IterationStats]``."""
        cfg = self.config
        vbd = self.driver.vbd
        source = self.source
        crashes = source.crash_count

        # Start tracking *before* the first block is read so no write is
        # ever missed (paper: blkback starts monitoring, then blkd copies).
        # ``tracking`` is the currently registered bitmap, rebound at every
        # swap below — the loop body never re-looks it up on the driver.
        if self.resume:
            # A failed attempt left its bitmap registered; swap it out
            # atomically so writes during the retry handshake land in the
            # fresh bitmap while the survivor becomes iteration 1's work.
            tracking = self._fresh_bitmap()
            surviving = self.driver.swap_tracking(TRACKING_NAME, tracking)
            self.adopted_recovered = bool(getattr(surviving, "recovered",
                                                  False))
            indices = surviving.dirty_indices()
            if self.initial_indices is not None:
                # Whole-bitmap merge: scatter both sets into one scratch
                # map and scan, instead of a sort-based union1d.
                indices = union_indices(vbd.nblocks, indices,
                                        self.initial_indices)
            if self.store is not None and self.store.is_open:
                # The retry's first-iteration work set is pending again by
                # definition (dedup in the store makes this nearly free).
                self.store.record_set(indices)
        else:
            tracking = self._fresh_bitmap()
            self.driver.start_tracking(TRACKING_NAME, tracking)
            if self.initial_indices is None:
                indices = np.arange(vbd.nblocks, dtype=np.int64)
            else:
                indices = np.asarray(self.initial_indices, dtype=np.int64)

        iterations: list[IterationStats] = []
        iteration = 1
        while True:
            started = self.env.now
            it_span = self.env.tracer.begin(f"iteration:{iteration}",
                                            category="iteration",
                                            blocks=int(indices.size))
            stats = yield from self.streamer.stream(indices, category="disk",
                                                    limited=True)
            ended = self.env.now
            dirty_now = tracking.count()
            record = IterationStats(
                index=iteration,
                units_sent=stats.units_sent,
                bytes_sent=stats.bytes_sent,
                started_at=started,
                ended_at=ended,
                dirty_at_end=dirty_now,
            )
            iterations.append(record)
            self.env.tracer.end(it_span, units_sent=stats.units_sent,
                                bytes_sent=stats.bytes_sent,
                                dirty_at_end=dirty_now)
            self.env.metrics.gauge("precopy.dirty_blocks").set(dirty_now)

            escalated = (self.converge.observe(record)
                         if self.converge is not None else False)
            if not self._should_continue(record, iteration, escalated):
                break

            # The last chunk can land after the source died: its send had
            # already passed the channel's crash check.
            if source.crash_count != crashes:
                raise NetworkError(
                    f"source {source.name!r} crashed during disk pre-copy "
                    f"iteration {iteration}")
            # Iteration boundary: hand the dirty map to blkd, reset tracking.
            tracking = self._fresh_bitmap()
            old = self.driver.swap_tracking(TRACKING_NAME, tracking)
            indices = old.dirty_indices()
            iteration += 1

        return iterations

    def _should_continue(self, record: IterationStats, iteration: int,
                         escalated: bool = False) -> bool:
        cfg = self.config
        # Auto-converge trades the tight iteration cap for a larger (but
        # still hard) bound: throttling needs a few rounds to bite.
        limit = (cfg.max_disk_iterations if self.converge is None
                 else AUTO_CONVERGE_MAX_ITERATIONS)
        if iteration >= limit:
            return False
        if record.dirty_at_end <= cfg.disk_dirty_threshold_blocks:
            return False
        if record.dirty_at_end == 0:
            return False
        if escalated:
            # The controller just tightened the guest write throttle in
            # response to this iteration's dirty rate; give the slower
            # guest an iteration before judging convergence.
            return True
        # Proactive stop: dirtying faster than we can send.
        if record.outruns_transfer:
            return False
        # No forward progress: the dirty set is not shrinking.
        if record.dirty_at_end >= record.units_sent and iteration > 1:
            return False
        return True
