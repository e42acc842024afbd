"""Post-copy push-and-pull synchronization (paper §IV-A-3 and Fig. 3).

After the VM resumes on the destination, both machines hold the same
block-bitmap of still-inconsistent blocks (BM_1 on the source, BM_2 on the
destination).  The source *pushes* marked blocks continuously so the phase
finishes in finite time; the destination *pulls* a block only when the
guest reads it while still dirty.  A guest write to a dirty block
overwrites it wholesale, so the transfer is cancelled (BM_2 bit cleared)
and a later pushed copy is dropped on arrival.

The two numbered algorithms of §IV-A-3 map here as follows:

* *request interception* → :meth:`PostCopySynchronizer.intercept`,
  installed as the destination driver's interceptor;
* *block reception*      → :meth:`PostCopySynchronizer._receiver`.

One deliberate deviation, documented in DESIGN.md: when a guest write
clears BM_2 for a block that a queued read is waiting on, we wake that
read (it can be served from local disk, which now holds newer data).  The
paper's pseudocode would leave it pending forever, because the later
pushed copy is dropped without scanning the pending list — a liveness gap
for overlapping read/write to the same block.

The on-demand baseline is this synchronizer with every block dirty and
the push off (``postcopy_push=False``); :meth:`PostCopySynchronizer.stop`
ends its never-finishing workers.

Observability (see docs/OBSERVABILITY.md): with a real tracer installed
this module emits ``pull:request`` instants and maintains the
``postcopy.*`` counters (pushed/pulled/dropped/cancelled blocks, stalled
reads, pull requests), the ``postcopy.dirty_blocks`` gauge, and the
``postcopy.stall_seconds`` histogram of guest read stalls — the raw
material for the push-vs-pull ablation's timelines.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Generator

import numpy as np

from ..bitmap.base import BlockBitmap
from ..errors import MigrationError
from ..net.channel import Channel
from ..net.messages import BlockDataMsg, ControlMsg, PullRequestMsg
from ..storage.blkback import BackendDriver
from ..storage.block import IORequest
from ..storage.disk import PhysicalDisk
from ..storage.vbd import VirtualBlockDevice
from .config import MigrationConfig
from .metrics import PostCopyStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment, Event, Process

#: Wire priority for pull replies: they jump ahead of queued push batches
#: ("sends the pulled block preferentially").
PULL_REPLY_PRIORITY = 0
PUSH_PRIORITY = 5


class PostCopySynchronizer:
    """Drives one migration's post-copy phase on both machines."""

    def __init__(
        self,
        env: "Environment",
        src_disk: PhysicalDisk,
        src_vbd: VirtualBlockDevice,
        dst_disk: PhysicalDisk,
        dst_vbd: VirtualBlockDevice,
        dst_driver: BackendDriver,
        fwd_channel: Channel,
        rev_channel: Channel,
        source_bitmap: BlockBitmap,
        transferred_bitmap: BlockBitmap,
        config: MigrationConfig,
    ) -> None:
        self.env = env
        self.src_disk = src_disk
        self.src_vbd = src_vbd
        self.dst_disk = dst_disk
        self.dst_vbd = dst_vbd
        self.dst_driver = dst_driver
        self.fwd = fwd_channel
        self.rev = rev_channel
        #: BM_1 — the source's copy; bits cleared as blocks are sent.
        self.source_bitmap = source_bitmap
        #: BM_2 — the destination's copy; bits cleared as blocks are
        #: received or overwritten by guest writes.
        self.transferred_bitmap = transferred_bitmap
        self.config = config
        self.stats = PostCopyStats()
        # Live from here on: it must see the first request after resume.
        dst_driver.interceptor = self.intercept

        #: Still-dirty blocks on the destination, maintained incrementally
        #: for the ``postcopy.dirty_blocks`` gauge (counting the bitmap per
        #: message would re-scan it).
        self._remaining = transferred_bitmap.count()
        #: Pending list P: waiters per block number.
        self._pending: dict[int, list["Event"]] = {}
        #: Blocks for which a pull request is already outstanding.
        self._requested: set[int] = set()
        #: Pull requests received by the source, FIFO.
        self._pull_queue: deque[int] = deque()
        #: Set once the destination's bitmap first empties.
        self._synchronized_at: float | None = None
        #: Fires when the destination bitmap empties (pull-only termination).
        self._sync_event = env.event()
        #: Pusher parking spot while idle in pull-only mode.
        self._pull_wakeup: "Event | None" = None
        #: Worker processes not yet told to end (see :meth:`_end`).
        self._workers: list["Process"] = []
        #: Set by :meth:`stop`: the phase was abandoned, not completed.
        self._stopped = False
        #: Guest writes that cancelled a transfer and have not landed yet,
        #: and the event :meth:`run` waits on for the last of them.
        self._landing = 0
        self._landed: "Event | None" = None

    # ------------------------------------------------------------------
    # orchestration
    # ------------------------------------------------------------------

    def run(self) -> Generator:
        """Run the phase to completion; returns :class:`PostCopyStats`.

        Removes the destination interceptor on return, when destination
        storage is fully synchronized and the source may be shut down
        (finite dependency, §IV-A-4).
        """
        env = self.env
        self.stats.started_at = env.now
        env.metrics.gauge("postcopy.dirty_blocks").set(self._remaining)
        self._note_if_synchronized()  # the dirty set may already be empty
        procs = [
            env.process(_interruptible(self._receiver()),
                        name="postcopy:recv"),
            env.process(_interruptible(self._pusher()),
                        name="postcopy:push"),
            env.process(_interruptible(self._pull_listener()),
                        name="postcopy:pulls"),
        ]
        if not self.config.postcopy_push:
            # Pure pull mode never converges on its own accord; a watcher
            # ends the phase the moment the destination bitmap empties.
            procs.append(env.process(
                _interruptible(self._pull_only_watcher(procs[:2])),
                name="postcopy:watch"))
        self._workers = list(procs)
        yield env.all_of(procs)
        self.dst_driver.interceptor = None
        if self._stopped:
            return self.stats
        leftover = self.transferred_bitmap.count()
        if leftover:
            raise MigrationError(
                f"post-copy ended with {leftover} unsynchronized blocks")
        if self._landing:  # cancelling writes still on their way to disk
            self._landed = env.event()
            yield self._landed
        self.stats.ended_at = self._synchronized_at
        return self.stats

    def stop(self) -> None:
        """Abandon the phase: detach the interceptor and end every worker.

        For a pull-only phase that is never meant to finish (the on-demand
        baseline's residual dependency).  :meth:`run` then returns without
        checking for unsynchronized blocks.
        """
        self._stopped = True
        self.dst_driver.interceptor = None
        self._end(list(self._workers))

    def _end(self, procs) -> None:
        """Interrupt each worker in ``procs`` that still runs, at most once
        (a second interrupt before the first lands is an engine error)."""
        for proc in procs:
            if proc in self._workers:
                self._workers.remove(proc)
                if proc.is_alive:
                    proc.interrupt("postcopy-ended")

    # ------------------------------------------------------------------
    # destination: request interception (paper's first algorithm)
    # ------------------------------------------------------------------

    def intercept(self, request: IORequest) -> Generator:
        """Route one guest request per §IV-A-3.

        Returns True when fully handled here; False to fall through to the
        driver's direct path (which performs the disk I/O and marks the IM
        bitmap BM_3 via normal tracking — the pseudocode's line 7).
        """
        bitmap = self.transferred_bitmap
        if request.is_write():
            # Lines 5-10: a whole-block write supersedes the stale copy.
            if request.nblocks == 1:
                block = request.block
                if bitmap.test(block):
                    bitmap.clear(block)
                    self._wake(block)  # documented deviation
                    cancelled = 1
                else:
                    cancelled = 0
            else:
                blocks = np.arange(request.block,
                                   request.block + request.nblocks,
                                   dtype=np.int64)
                hit = blocks[bitmap.test_many(blocks)]
                cancelled = int(hit.size)
                if cancelled:
                    bitmap.clear_many(hit)
                    for block in hit.tolist():
                        self._wake(block)  # documented deviation
            if not cancelled:
                return False
            self._remaining -= cancelled
            metrics = self.env.metrics
            metrics.counter("postcopy.cancelled_blocks").inc(cancelled)
            metrics.gauge("postcopy.dirty_blocks").set(self._remaining)
            self._note_if_synchronized()
            # Serve it here, so :meth:`run` can wait for it to land.
            self._landing += 1
            try:
                yield from self.dst_driver.serve_direct(request)
            finally:
                self._landing -= 1
                if not self._landing and self._landed is not None:
                    self._landed.succeed()
            return True

        # Lines 11-13: reads pull only still-dirty blocks.
        if request.nblocks == 1:
            dirty = [request.block] if bitmap.test(request.block) else []
        else:
            blocks = np.arange(request.block,
                               request.block + request.nblocks,
                               dtype=np.int64)
            dirty = blocks[bitmap.test_many(blocks)].tolist()
        if not dirty:
            return False

        self.stats.stalled_reads += 1
        self.env.metrics.counter("postcopy.stalled_reads").inc()
        stall_start = self.env.now
        waiters = [self._wait_for(b) for b in dirty]
        for block in dirty:
            if block not in self._requested:
                self._requested.add(block)
                self.env.metrics.counter("postcopy.pull_requests").inc()
                self.env.tracer.instant("pull:request", category="postcopy",
                                        block=int(block))
                yield from self.rev.send(
                    PullRequestMsg(block, request.request_id),
                    category="pull", limited=False)
        yield self.env.all_of(waiters)
        stall = self.env.now - stall_start
        self.stats.stall_time += stall
        self.env.metrics.histogram("postcopy.stall_seconds").observe(stall)
        # Lines 14-15: dequeue and submit to the physical driver.
        yield from self.dst_driver.serve_direct(request)
        return True

    def _wait_for(self, block: int) -> "Event":
        event = self.env.event()
        self._pending.setdefault(block, []).append(event)
        return event

    def _wake(self, block: int) -> None:
        for event in self._pending.pop(block, []):
            event.succeed()

    def _note_if_synchronized(self) -> None:
        # ``_remaining`` mirrors ``transferred_bitmap.count()`` exactly (the
        # interceptor and receiver decrement it on every clear), so the
        # per-message/per-write synchronization check never re-counts.
        if self._synchronized_at is None and self._remaining == 0:
            self._synchronized_at = self.env.now
            self._sync_event.succeed()

    # ------------------------------------------------------------------
    # destination: block reception (paper's second algorithm)
    # ------------------------------------------------------------------

    def _receiver(self) -> Generator:
        bitmap = self.transferred_bitmap
        block_size = self.dst_vbd.block_size
        while True:
            msg = yield self.fwd.recv()
            if isinstance(msg, ControlMsg):
                if msg.tag == "push-done":
                    break
                raise MigrationError(
                    f"unexpected control message {msg.tag!r} in post-copy")
            indices = np.asarray(msg.indices, dtype=np.int64)
            # Lines 4-5: update local disk (for the blocks still dirty on
            # arrival), clear the bitmap.
            nlive = int(np.count_nonzero(bitmap.test_many(indices)))
            if nlive:
                yield from self.dst_disk.write(nlive * block_size)
            # Lines 2-3, at the update itself: drop blocks a local write
            # has superseded, also while the disk was busy.
            keep = bitmap.test_many(indices)
            dropped = int(indices.size - np.count_nonzero(keep))
            self.stats.dropped_blocks += dropped
            if dropped:
                self.env.metrics.counter("postcopy.dropped_blocks").inc(
                    dropped)
            live = indices[keep]
            if live.size:
                stamps = np.asarray(msg.stamps)[keep]
                data = msg.data[keep] if msg.data is not None else None
                self.dst_vbd.import_blocks(live, stamps, data)
                bitmap.clear_many(live)
                metrics = self.env.metrics
                self._remaining -= int(live.size)
                metrics.gauge("postcopy.dirty_blocks").set(self._remaining)
                if msg.pulled:
                    self.stats.pulled_blocks += int(live.size)
                    metrics.counter("postcopy.pulled_blocks").inc(
                        int(live.size))
                else:
                    self.stats.pushed_blocks += int(live.size)
                    metrics.counter("postcopy.pushed_blocks").inc(
                        int(live.size))
                # Lines 6-11: release pending requests waiting on them.
                for block in live.tolist():
                    self._wake(block)
                self._note_if_synchronized()
        # Tell the source it may stop listening for pulls: its finite
        # dependency ends here.
        yield from self.rev.send(ControlMsg("postcopy-complete"),
                                 category="control", limited=False)

    # ------------------------------------------------------------------
    # source: pusher and pull listener
    # ------------------------------------------------------------------

    def _pusher(self) -> Generator:
        """Push all BM_1 blocks, serving queued pulls preferentially.

        With ``postcopy_push`` disabled the process only answers pulls,
        parking between requests; the watcher ends it once the
        destination reports synchronization.
        """
        cfg = self.config
        bitmap = self.source_bitmap
        order = bitmap.dirty_indices()
        position = 0
        while True:
            if self._pull_queue:
                block = self._pull_queue.popleft()
                if bitmap.test(block):
                    yield from self._send_blocks(
                        np.array([block], dtype=np.int64),
                        pulled=True, priority=PULL_REPLY_PRIORITY)
                continue
            if not cfg.postcopy_push:
                # Nothing to answer: park until the next pull arrives.
                self._pull_wakeup = self.env.event()
                yield self._pull_wakeup
                self._pull_wakeup = None
                continue
            # Consume candidates in windows: exactly as many blocks come
            # off ``order`` as the scalar test-one-at-a-time loop would
            # take, but each window is tested in one vector call.
            batch: "np.ndarray | None" = None
            need = cfg.push_chunk_blocks
            while position < order.size and need > 0:
                window = order[position:position + need]
                position += window.size
                live = window[bitmap.test_many(window)]
                batch = (live if batch is None
                         else np.concatenate((batch, live)))
                need = cfg.push_chunk_blocks - batch.size
            if batch is not None and batch.size:
                yield from self._send_blocks(batch, pulled=False,
                                             priority=PUSH_PRIORITY)
            elif position >= order.size:
                break
        yield from self.fwd.send(ControlMsg("push-done"),
                                 category="control", limited=False)

    def _send_blocks(self, blocks: np.ndarray, pulled: bool,
                     priority: int) -> Generator:
        """Read blocks from the (frozen) source disk and send them."""
        self.source_bitmap.clear_many(blocks)
        block_size = self.src_vbd.block_size
        yield from self.src_disk.read(int(blocks.size) * block_size)
        stamps, data = self.src_vbd.export_blocks(blocks)
        msg = BlockDataMsg(blocks, stamps, data, block_size, pulled=pulled)
        # Post-copy is never throttled: the paper's rate limit applies to
        # pre-copy only, and a stalled guest read is waiting on this.
        yield from self.fwd.send(msg, category="disk", limited=False,
                                 priority=priority)

    def _pull_listener(self) -> Generator:
        """Source-side: queue incoming pull requests for the pusher."""
        while True:
            msg = yield self.rev.recv()
            if isinstance(msg, ControlMsg) and msg.tag == "postcopy-complete":
                break
            if isinstance(msg, PullRequestMsg):
                self._pull_queue.append(msg.block)
                if (self._pull_wakeup is not None
                        and not self._pull_wakeup.triggered):
                    self._pull_wakeup.succeed()
            else:
                raise MigrationError(
                    f"unexpected message {msg!r} on the pull channel")

    def _pull_only_watcher(self, workers) -> Generator:
        """Pull-only mode: end the phase once the destination bitmap empties.

        Ends the receiver and pusher (which would otherwise wait forever —
        exactly the unbounded dependency the paper's push avoids) and
        releases the source's pull listener.
        """
        yield self._sync_event
        self._end(workers)
        yield from self.rev.send(ControlMsg("postcopy-complete"),
                                 category="control", limited=False)


def _interruptible(worker: Generator) -> Generator:
    """Run ``worker`` as a process body that :meth:`PostCopySynchronizer._end`
    may stop at any yield: the interrupt ends it quietly."""
    from ..sim import Interrupt

    try:
        yield from worker
    except Interrupt:
        pass
