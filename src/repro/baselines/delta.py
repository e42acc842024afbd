"""Forward-and-replay migration with a delta queue (Bradford et al., VEE'07).

The paper's closest competitor (§II-B, §IV-A-2): local storage is
pre-copied once while every guest write is intercepted and *forwarded* to
the destination as a delta ``(data, location, size)``.  The destination
queues deltas and replays them in order once the bulk copy finishes.
After the VM resumes there, **all its disk I/O is blocked until the queue
has drained** — the I/O block time the block-bitmap design eliminates.

Two pathologies the bitmap fixes are measured here:

* *redundancy* — a block written ``k`` times crosses the wire ``k`` times
  (the bitmap coalesces them into one post-copy transfer).  The paper's
  locality study (11 % / 25.2 % / 35.6 % rewrites) quantifies how often
  this happens;
* *write throttling* — when the write rate outruns the network, guest
  writes must be delayed so the delta stream can keep up.
"""

from __future__ import annotations

from collections import deque
from typing import Generator, Optional

import numpy as np

from ..core.memcopy import MemoryPreCopier
from ..core.scheme import MigrationScheme, register_scheme
from ..core.transfer import BlockStreamer, PageStreamer
from ..errors import MigrationError, NetworkError
from ..net.channel import Channel
from ..net.messages import ControlMsg, CPUStateMsg, DeltaMsg
from ..storage.block import IORequest
from ..storage.vbd import VirtualBlockDevice


@register_scheme
class DeltaQueueMigration(MigrationScheme):
    """Whole-system migration with forward-and-replay storage sync."""

    name = "delta-queue"
    aliases = ("delta",)

    def __init__(self, *args,
                 throttle_watermark: Optional[int] = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        #: Delay guest writes while more than this many delta bytes are
        #: waiting to be sent (None = no throttling).
        self.throttle_watermark = throttle_watermark
        #: Deltas ride their own channel on the same physical link, so they
        #: contend with (but do not corrupt) the bulk pre-copy stream.
        self.delta_channel = Channel(self.env, self.fwd.link, name="delta",
                                     sender=self.fwd.sender)
        self.extra_channels.append(self.delta_channel)
        self._outbox: deque = deque()
        self._backlog_bytes = 0
        #: Deltas collected at the destination, awaiting replay.
        self._queue: deque = deque()
        self._forwarding = False
        self._seen = None
        self._src_driver = None
        self._procs: list = []
        self.redundant_blocks = 0
        self.delta_count = 0
        self.throttle_time = 0.0

    # ------------------------------------------------------------------

    def _execute(self) -> Generator:
        env = self.env
        domain = self.domain
        cfg = self.config
        report = self.report
        tracer = env.tracer

        from ..vm.memory import GuestMemory

        src_vbd = self.source.vbd_of(domain.domain_id)
        src_driver = self._src_driver = self.source.driver_of(
            domain.domain_id)
        dest_vbd = self.destination.prepare_vbd(
            src_vbd.nblocks, src_vbd.block_size, data=src_vbd.has_data)
        self._seen = np.zeros(src_vbd.nblocks, dtype=bool)

        # Start forwarding every write as a delta.
        self._forwarding = True
        src_driver.write_observers.append(self._observe_write)
        if self.throttle_watermark is not None:
            src_driver.interceptor = self._throttle
        sender = env.process(self._delta_sender(src_vbd),
                             name="delta:send")
        collector = env.process(self._delta_collector(),
                                name="delta:collect")
        self._procs = [sender, collector]

        # Single-pass bulk disk copy.
        self._notify_phase("precopy-disk")
        disk_span = tracer.begin("phase:precopy-disk", category="phase",
                                 blocks=int(src_vbd.nblocks))
        report.precopy_disk_started_at = env.now
        streamer = BlockStreamer(env, self.source.disk, src_vbd,
                                 self.destination.disk, dest_vbd,
                                 self.fwd, cfg)
        yield from streamer.stream(
            np.arange(src_vbd.nblocks, dtype=np.int64), category="disk")
        report.precopy_disk_ended_at = env.now
        tracer.end(disk_span)

        # Memory pre-copy (disk writes keep being forwarded meanwhile).
        self._notify_phase("precopy-mem")
        shadow = GuestMemory(domain.memory.npages, domain.memory.page_size,
                             clock=domain.memory.clock)
        pages = PageStreamer(env, domain.memory, shadow, self.fwd, cfg)
        mem_span = tracer.begin("phase:precopy-mem", category="phase")
        report.precopy_mem_started_at = env.now
        report.mem_rounds = yield from MemoryPreCopier(
            env, domain.memory, pages, cfg).run()
        report.precopy_mem_ended_at = env.now
        tracer.end(mem_span, rounds=len(report.mem_rounds))

        # Freeze-and-copy.
        self._committed = True
        self._notify_phase("freeze")
        domain.suspend()
        freeze_span = tracer.begin("phase:freeze", category="phase")
        report.suspended_at = env.now
        tracer.instant("suspend", category="freeze")
        if cfg.suspend_overhead > 0:
            yield env.timeout(cfg.suspend_overhead)
        yield from src_driver.quiesce()
        self._forwarding = False
        src_driver.write_observers.remove(self._observe_write)
        src_driver.interceptor = None

        final = domain.memory.stop_logging()
        dirty_pages = final.dirty_indices()
        report.final_dirty_pages = int(dirty_pages.size)
        yield from pages.stream(dirty_pages, category="memory", limited=False)
        yield from self.fwd.send(CPUStateMsg(domain.cpu.state_nbytes),
                                 category="cpu", limited=False)
        yield self.fwd.recv()
        if not shadow.identical_to(domain.memory):
            raise MigrationError("memory inconsistent at end of freeze")

        # Flush the remaining delta backlog, then close the stream.
        yield sender  # sender drains the outbox, then exits on a sentinel
        yield collector

        self.source.detach_domain(domain.domain_id)
        dst_driver = self.destination.attach_domain(domain, dest_vbd)
        domain.memory = shadow

        # Resume immediately, but block every disk request until all
        # forwarded deltas have been replayed (Bradford's design).
        replay_done = env.event()

        def blocker(request: IORequest) -> Generator:
            if not replay_done.processed:
                yield replay_done
            return False

        dst_driver.interceptor = blocker
        if cfg.resume_overhead > 0:
            yield env.timeout(cfg.resume_overhead)
        domain.resume()
        report.resumed_at = env.now
        tracer.instant("resume", category="freeze",
                       downtime=report.resumed_at - report.suspended_at)
        tracer.end(freeze_span,
                   final_dirty_pages=report.final_dirty_pages)

        # Replay the queue in arrival order.
        self._notify_phase("delta-replay")
        replay_span = tracer.begin("phase:delta-replay", category="phase",
                                   queued=len(self._queue))
        replay_started = env.now
        while self._queue:
            block, nblocks, stamps, data = self._queue.popleft()
            yield from self.destination.disk.write(
                nblocks * dest_vbd.block_size,
                priority=cfg.migration_disk_priority)
            idx = np.arange(block, block + nblocks, dtype=np.int64)
            dest_vbd.import_blocks(idx, stamps, data)
        if cfg.verify_consistency:
            src_vbd.assert_identical(dest_vbd)
            report.consistency_verified = True
        report.extra["io_block_time"] = env.now - replay_started
        report.extra["delta_count"] = self.delta_count
        report.extra["redundant_blocks"] = self.redundant_blocks
        report.extra["throttle_time"] = self.throttle_time
        replay_done.succeed()
        dst_driver.interceptor = None
        tracer.end(replay_span, delta_count=self.delta_count,
                   redundant_blocks=self.redundant_blocks)
        report.ended_at = env.now
        return report

    # -- failure -----------------------------------------------------------

    def _on_failure(self, exc: NetworkError) -> Optional[VirtualBlockDevice]:
        """Tear down the write-forwarding plumbing on a mid-flight death."""
        self._forwarding = False
        if self._src_driver is not None:
            if self._observe_write in self._src_driver.write_observers:
                self._src_driver.write_observers.remove(self._observe_write)
            if self._src_driver.interceptor is self._throttle:
                self._src_driver.interceptor = None
        for proc in self._procs:
            if proc.is_alive:
                proc.interrupt("migration failed")
        return None

    # -- source side -------------------------------------------------------

    def _observe_write(self, request: IORequest) -> None:
        """Capture one applied write as a delta (synchronous, zero-cost)."""
        if not self._forwarding:
            return
        self._outbox.append((request.block, request.nblocks))
        self._backlog_bytes += request.nbytes
        overlap = int(self._seen[request.block:request.block
                                 + request.nblocks].sum())
        self.redundant_blocks += overlap
        self._seen[request.block:request.block + request.nblocks] = True
        self.delta_count += 1

    def _throttle(self, request: IORequest) -> Generator:
        """Source interceptor: delay writes while the backlog is deep."""
        if request.is_write() and self.throttle_watermark is not None:
            start = self.env.now
            while self._backlog_bytes > self.throttle_watermark:
                yield self.env.timeout(1e-3)
            self.throttle_time += self.env.now - start
        return False

    def _delta_sender(self, src_vbd) -> Generator:
        """Ship queued deltas over the delta channel until forwarding ends
        and the outbox is empty."""
        env = self.env
        from ..sim import Interrupt

        try:
            while self._forwarding or self._outbox:
                if not self._outbox:
                    yield env.timeout(1e-3)
                    continue
                block, nblocks = self._outbox.popleft()
                idx = np.arange(block, block + nblocks, dtype=np.int64)
                # Content is captured at send time; replay in order still
                # converges to the source's final state (a later rewrite
                # simply ships its newer content twice).
                stamps, data = src_vbd.export_blocks(idx)
                msg = DeltaMsg(block, nblocks, src_vbd.block_size, stamps,
                               data)
                yield from self.delta_channel.send(msg, category="delta")
                self._backlog_bytes -= nblocks * src_vbd.block_size
            yield from self.delta_channel.send(
                ControlMsg("deltas-done"), category="control", limited=False)
        except Interrupt:
            return

    def _delta_collector(self) -> Generator:
        """Destination side: queue arriving deltas for later replay."""
        from ..sim import Interrupt

        try:
            while True:
                msg = yield self.delta_channel.recv()
                if isinstance(msg, ControlMsg) and msg.tag == "deltas-done":
                    break
                if isinstance(msg, DeltaMsg):
                    self._queue.append((msg.block, msg.nblocks, msg.stamps,
                                        msg.data))
        except Interrupt:
            return
