"""Three-Phase Migration (TPM) — the paper's core contribution (§IV).

Phases (Fig. 1/2):

1. **Pre-copy** — initialisation (destination prepares a VBD), iterative
   local-disk pre-copy with block-bitmap tracking, then iterative memory
   pre-copy (disk first, because the long disk copy would re-dirty any
   prematurely copied memory).
2. **Freeze-and-copy** — suspend the VM; ship the final dirty pages, the
   CPU state, and the block-bitmap itself; move the domain to the
   destination; resume.  Downtime is exactly this window.
3. **Post-copy** — resume immediately; the source pushes remaining dirty
   blocks while the destination pulls on guest reads
   (:class:`~repro.core.postcopy.PostCopySynchronizer`).

Incremental Migration (§V) is this same class with ``im_bitmap`` set:
the first iteration copies that bitmap's dirty set instead of the whole
device, and the destination's existing stale VBD is reused instead of a
fresh one.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..bitmap import BlockBitmap, make_bitmap
from ..errors import MigrationError, NetworkError
from ..net.channel import Channel
from ..net.messages import BitmapMsg, ControlMsg, CPUStateMsg
from ..storage.vbd import VirtualBlockDevice
from ..vm.domain import Domain
from ..vm.host import Host
from ..vm.memory import GuestMemory
from .config import MigrationConfig
from .memcopy import MemoryPreCopier
from .postcopy import PostCopySynchronizer
from .precopy import TRACKING_NAME, DiskPreCopier
from .scheme import MigrationScheme, register_scheme
from .transfer import BlockStreamer, PageStreamer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment

#: Tracking-bitmap name for the IM map (BM_3): writes on the destination
#: after resume, consumed by the next migration back.
IM_TRACKING_NAME = "im"


@register_scheme
class ThreePhaseMigration(MigrationScheme):
    """One whole-system live migration, source → destination."""

    name = "tpm"
    supports_abort = True
    uses_im = True

    def __init__(
        self,
        env: "Environment",
        domain: Domain,
        source: Host,
        destination: Host,
        fwd_channel: Channel,
        rev_channel: Channel,
        config: Optional[MigrationConfig] = None,
        im_bitmap: Optional[BlockBitmap] = None,
        dest_vbd: Optional[VirtualBlockDevice] = None,
        workload_name: str = "unknown",
        extra_im_bitmaps: Optional[dict] = None,
        resume: bool = False,
    ) -> None:
        super().__init__(env, domain, source, destination, fwd_channel,
                         rev_channel, config, workload_name)
        #: IM: the live divergence bitmap (writes since the domain left
        #: the destination) whose dirty set the first iteration transfers;
        #: None = the whole device.  It keeps tracking through the init
        #: handshake and is read only when pre-copy tracking starts, so a
        #: write in between is never missed.
        self.im_bitmap = im_bitmap
        #: IM: reuse this stale VBD on the destination (None = fresh one).
        self.dest_vbd = dest_vbd
        #: Multi-host IM (the paper's future work, via Migrator): divergence
        #: bitmaps against *other* stale hosts, re-registered on the
        #: destination driver before resume so no post-resume write is
        #: missed.  They stayed registered on the source driver through
        #: pre-copy, so pre-resume writes are already in them.
        self.extra_im_bitmaps = extra_im_bitmaps or {}
        #: True when retrying a failed attempt: the disk pre-copy adopts
        #: the surviving ``"precopy"`` bitmap instead of registering a
        #: fresh one and copying the whole device.
        self.resume = resume
        self._block_streamer: Optional[BlockStreamer] = None
        self._src_driver = None
        #: Adaptive transfer stack (all None unless the config enables
        #: them): multifd sub-channel fan-out, per-stream delta caches,
        #: and the auto-converge throttle controller.
        self._multifd = None
        self._disk_delta = None
        self._page_delta = None
        self._converge = None
        #: Durable bitmap store backing this attempt (persist_bitmap only).
        self._store = None
        #: Destination VBD of the in-flight attempt (for the failure path).
        self._dest_vbd_inflight: Optional[VirtualBlockDevice] = None
        self.report.incremental = im_bitmap is not None

    # -- template hooks ----------------------------------------------------

    def _span_attrs(self) -> dict:
        return dict(incremental=self.report.incremental, resume=self.resume)

    def _end_attrs(self) -> dict:
        return dict(total_migration_time=self.report.total_migration_time,
                    downtime=self.report.downtime,
                    migrated_bytes=self.report.migrated_bytes)

    # ------------------------------------------------------------------

    def _execute(self) -> Generator:
        env = self.env
        domain = self.domain
        cfg = self.config
        report = self.report
        tracer = env.tracer

        src_vbd = self.source.vbd_of(domain.domain_id)
        src_driver = self._src_driver = self.source.driver_of(
            domain.domain_id)
        source_crashes = self.source.crash_count
        dest_vbd: Optional[VirtualBlockDevice] = None
        self._notify_phase("init")
        init_span = tracer.begin("phase:init", category="phase")

        # A network failure anywhere before the commit point tears the
        # migration down with the guest untouched on the source; the
        # write-tracking bitmap is *kept* so a retry can be incremental
        # (the base class converts it into a stamped MigrationFailed).

        # -- initialisation: ask the destination to prepare a VBD ------
        yield from self.fwd.send(ControlMsg("prepare-vbd"),
                                 category="control", limited=False)
        yield self.fwd.recv()  # destination consumes the request
        if self.dest_vbd is None:
            dest_vbd = self.destination.prepare_vbd(
                src_vbd.nblocks, src_vbd.block_size, data=src_vbd.has_data)
        else:
            dest_vbd = self.dest_vbd
            if (dest_vbd.nblocks, dest_vbd.block_size) != (
                    src_vbd.nblocks, src_vbd.block_size):
                raise MigrationError(
                    "stale destination VBD geometry does not match source")
        self._dest_vbd_inflight = dest_vbd
        yield from self.rev.send(ControlMsg("vbd-ready"),
                                 category="control", limited=False)
        yield self.rev.recv()  # source consumes the acknowledgement

        # -- phase 1a: iterative disk pre-copy ------------------------
        self._notify_phase("precopy-disk")
        tracer.end(init_span)
        disk_span = tracer.begin("phase:precopy-disk", category="phase")
        report.precopy_disk_started_at = env.now
        # -- adaptive transfer stack (docs/TRANSFER.md; all default off) --
        multifd = None
        if cfg.multifd_channels > 1:
            from ..net.multifd import MultiFD

            multifd = self._multifd = MultiFD(env, self.fwd,
                                              cfg.multifd_channels)
            # Register the sub-channels so the report's byte ledger and
            # the cluster conservation audit see every striped byte.
            self.extra_channels.extend(multifd.channels)
        disk_delta = page_delta = None
        if cfg.delta_cache_mb > 0:
            from ..net.delta import DeltaCache
            from ..units import MiB

            cache_nbytes = cfg.delta_cache_mb * MiB
            disk_delta = self._disk_delta = DeltaCache(
                cache_nbytes, src_vbd.block_size,
                delta_ratio=cfg.delta_ratio,
                encode_throughput=cfg.delta_throughput, name="delta.disk")
            if cfg.include_memory:
                page_delta = self._page_delta = DeltaCache(
                    cache_nbytes, domain.memory.page_size,
                    delta_ratio=cfg.delta_ratio,
                    encode_throughput=cfg.delta_throughput,
                    name="delta.mem")
        converge = None
        if cfg.auto_converge:
            from .converge import AutoConvergeController

            converge = self._converge = AutoConvergeController(
                env, domain, cfg)
        block_streamer = BlockStreamer(
            env, self.source.disk, src_vbd, self.destination.disk,
            dest_vbd, self.fwd, cfg, multifd=multifd, delta=disk_delta)
        self._block_streamer = block_streamer
        # No yield from here to the pre-copier's start_tracking: every
        # write lands either in this snapshot or in the tracking bitmap.
        initial_indices = (self.im_bitmap.dirty_indices()
                           if self.im_bitmap is not None else None)
        if (initial_indices is None and cfg.guest_aware
                and self.dest_vbd is None and not self.resume):
            # Guest-aware first iteration (§VII): never-written blocks
            # are all-zero on the source and on the fresh destination
            # VBD alike, so only the allocated set needs to cross the
            # wire.  Only valid against a *fresh* destination — a stale
            # IM copy may hold old data in blocks that look unallocated
            # here.
            initial_indices = src_vbd.allocated_indices()
            report.extra["guest_aware_skipped_blocks"] = int(
                src_vbd.nblocks - initial_indices.size)
        store = None
        if cfg.persist_bitmap:
            store = self._store = self.source.bitmap_store(
                domain.domain_id, purpose="precopy",
                nbits=src_vbd.nblocks,
                policy=cfg.persist_sync_policy,
                flush_every=cfg.persist_flush_every,
                region_bits=cfg.persist_region_bits,
                snapshot_every=cfg.persist_snapshot_every)
            if not store.is_open:
                # A fresh session: everything the first iteration will
                # move is pending.  A retry finds the prior attempt's (or
                # crash recovery's) session already open and keeps it.
                store.open_session(None if self.resume
                                   else initial_indices)

            def confirm_clear(indices, _store=store, _driver=src_driver):
                # Blocks the destination confirmed are no longer pending —
                # unless the guest re-dirtied them after the chunk was
                # read, in which case the live bitmap still marks them.
                if not _store.is_open:
                    return
                if _driver.has_tracking(TRACKING_NAME):
                    live = _driver.tracking_bitmap(TRACKING_NAME)
                    indices = indices[~live.test_many(indices)]
                if indices.size:
                    _store.record_clear(indices)

            block_streamer.chunk_written = confirm_clear
        precopier = DiskPreCopier(
            env, src_driver, block_streamer, cfg,
            initial_indices=initial_indices,
            abort_requested=lambda: self._abort_requested,
            resume=self.resume, store=store, converge=converge)
        report.disk_iterations = yield from precopier.run()
        if precopier.adopted_recovered:
            report.extra["recovered_from_persistence"] = True
        report.precopy_disk_ended_at = env.now
        tracer.end(disk_span,
                   iterations=len(report.disk_iterations),
                   retransferred_blocks=report.retransferred_blocks)
        if self._abort_requested:
            return (yield from self._abort(src_driver,
                                           memory_logging=False))

        # -- phase 1b: iterative memory pre-copy ----------------------
        self._notify_phase("precopy-mem")
        shadow_memory: Optional[GuestMemory] = None
        mem_span = tracer.begin("phase:precopy-mem", category="phase")
        report.precopy_mem_started_at = env.now
        if cfg.include_memory:
            shadow_memory = GuestMemory(domain.memory.npages,
                                        domain.memory.page_size,
                                        clock=domain.memory.clock)
            page_streamer = PageStreamer(env, domain.memory,
                                         shadow_memory, self.fwd, cfg,
                                         multifd=multifd, delta=page_delta)
            memcopier = MemoryPreCopier(env, domain.memory, page_streamer,
                                        cfg)
            report.mem_rounds = yield from memcopier.run()
        report.precopy_mem_ended_at = env.now
        tracer.end(mem_span, rounds=len(report.mem_rounds))
        if self._abort_requested:
            return (yield from self._abort(
                src_driver, memory_logging=cfg.include_memory))

        # -- phase 2: freeze-and-copy -------------------------------------
        self._committed = True
        self._notify_phase("freeze")
        freeze_span = tracer.begin("phase:freeze", category="phase")
        if converge is not None:
            # The guest suspends now and must resume unthrottled on the
            # destination; the pre-copy the throttle served is over.
            converge.release()
        domain.suspend()
        report.suspended_at = env.now
        tracer.instant("suspend", category="freeze")
        # Drain guest I/O already queued at the disk so its writes are
        # applied (and bitmap-tracked) before the final harvest.
        yield from src_driver.quiesce()
        if cfg.suspend_overhead > 0:
            yield env.timeout(cfg.suspend_overhead)

        cpu_snapshot = None
        if cfg.include_memory and shadow_memory is not None:
            final_dirty = domain.memory.stop_logging()
            pages = final_dirty.dirty_indices()
            report.final_dirty_pages = int(pages.size)
            page_streamer = PageStreamer(env, domain.memory, shadow_memory,
                                         self.fwd, cfg,
                                         multifd=multifd, delta=page_delta)
            yield from page_streamer.stream(pages, category="memory",
                                            limited=False)
            # Capture the register state *now*, while the guest is frozen
            # on the source — this snapshot is what the CPUStateMsg ships
            # and what the destination must resume from.
            cpu_snapshot = domain.cpu.capture()
            yield from self.fwd.send(
                CPUStateMsg(domain.cpu.state_nbytes), category="cpu",
                limited=False)
            yield self.fwd.recv()  # destination receives the CPU state
            if not shadow_memory.identical_to(domain.memory):
                raise MigrationError(
                    "destination memory inconsistent at end of freeze")

        # Harvest the final block-bitmap and ship it (the *only* disk
        # synchronization data the downtime pays for).  A source that
        # crashed (and perhaps restarted) since this attempt began lost
        # its tracking bitmap: a failed migration, not a storage fault.
        if self.source.crash_count != source_crashes:
            raise NetworkError(
                f"source {self.source.name!r} crashed before the final "
                "bitmap harvest")
        final_bitmap = src_driver.stop_tracking(TRACKING_NAME)
        if self._store is not None and self._store.is_open:
            # Committed: the source copy is now the stale one, so the
            # pending set is moot.  Mark the store clean — a crash after
            # this point has nothing to recover (post-copy failures are a
            # different, non-retriable failure class).
            self._store.complete()
        report.remaining_dirty_blocks = final_bitmap.count()
        report.bitmap_nbytes = final_bitmap.serialized_nbytes()
        env.metrics.gauge("tpm.remaining_dirty_blocks").set(
            report.remaining_dirty_blocks)
        tracer.instant("bitmap:shipped", category="freeze",
                       dirty_blocks=report.remaining_dirty_blocks,
                       bitmap_nbytes=report.bitmap_nbytes)
        yield from self.fwd.send(
            BitmapMsg(final_bitmap.nbits, final_bitmap.dirty_indices(),
                      final_bitmap.serialized_nbytes()),
            category="bitmap", limited=False)
        bitmap_msg = yield self.fwd.recv()  # destination receives BM_2

        # Move the domain: detach from the source, attach on the
        # destination, adopt the received memory image.
        self.source.detach_domain(domain.domain_id)
        dst_driver = self.destination.attach_domain(domain, dest_vbd)
        if cfg.include_memory and shadow_memory is not None:
            domain.cpu.restore(cpu_snapshot)
            domain.memory = shadow_memory

        # BM_2: the destination's copy of the shipped bitmap;
        # BM_1: the source keeps `final_bitmap` itself.
        transferred_bitmap = make_bitmap(bitmap_msg.nbits,
                                         cfg.bitmap_layout,
                                         leaf_bits=cfg.leaf_bits)
        transferred_bitmap.set_many(bitmap_msg.dirty_indices)

        # BM_3: new writes on the destination, for a later IM (§V).
        if cfg.track_incremental:
            dst_driver.start_tracking(
                IM_TRACKING_NAME,
                make_bitmap(dest_vbd.nblocks, cfg.bitmap_layout,
                            leaf_bits=cfg.leaf_bits))
        # Carried bitmaps (divergence maps, backup-chain tracking) follow
        # the domain regardless of IM tracking — a backup chain must not
        # silently stop accumulating deltas because IM is off.
        for name, bitmap in self.extra_im_bitmaps.items():
            dst_driver.start_tracking(name, bitmap)

        synchronizer = PostCopySynchronizer(
            env, self.source.disk, src_vbd, self.destination.disk, dest_vbd,
            dst_driver, self.fwd, self.rev,
            source_bitmap=final_bitmap,
            transferred_bitmap=transferred_bitmap,
            config=cfg)
        # The interceptor must be live *before* the first guest request.
        dst_driver.interceptor = synchronizer.intercept

        if cfg.resume_overhead > 0:
            yield env.timeout(cfg.resume_overhead)
        domain.resume()
        report.resumed_at = env.now
        tracer.instant("resume", category="freeze",
                       downtime=report.resumed_at - report.suspended_at)
        tracer.end(freeze_span,
                   final_dirty_pages=report.final_dirty_pages,
                   remaining_dirty_blocks=report.remaining_dirty_blocks,
                   bitmap_nbytes=report.bitmap_nbytes)

        # -- phase 3: post-copy push-and-pull -----------------------------
        self._notify_phase("postcopy")
        postcopy_span = tracer.begin("phase:postcopy", category="phase")
        report.postcopy = yield from synchronizer.run()
        report.ended_at = report.postcopy.ended_at
        # The phase logically ends at synchronization, which can precede
        # the current clock (worker processes wind down afterwards).
        tracer.end(postcopy_span, at=report.postcopy.ended_at,
                   pushed=report.postcopy.pushed_blocks,
                   pulled=report.postcopy.pulled_blocks,
                   dropped=report.postcopy.dropped_blocks,
                   stalled_reads=report.postcopy.stalled_reads)

        # -- wire accounting & verification --------------------------------
        report.bytes_by_category = self._ledger_delta(self._ledger_before)
        self._stamp_transfer_extras()
        if cfg.verify_consistency:
            verify_span = tracer.begin("phase:verify", category="phase")
            # A guest write may have cancelled a transfer (clearing BM_2,
            # so the pushed copy was dropped) while its own disk apply is
            # still in flight.  Such a block looks inconsistent until the
            # apply lands (at which point the IM bitmap explains it), so
            # retry briefly rather than quiescing — a zero-think-time
            # guest never drains, but these transients always resolve.
            verify_started = env.now
            deadline = verify_started + cfg.verify_retry_budget
            while True:
                unexplained = self._unexplained_diff(src_vbd, dest_vbd,
                                                     dst_driver)
                if unexplained.size == 0:
                    break
                if env.now >= deadline:
                    preview = unexplained[:10].tolist()
                    suffix = ", ..." if unexplained.size > 10 else ""
                    tracer.close_open(error="inconsistent after migration")
                    raise MigrationError(
                        f"{unexplained.size} blocks inconsistent after "
                        f"migration (waited "
                        f"{env.now - verify_started:.3f}s); offending "
                        f"blocks: {preview}{suffix}")
                yield env.timeout(cfg.verify_retry_interval)
            report.consistency_verified = True
            tracer.end(verify_span, verified=True)
        return report

    # ------------------------------------------------------------------

    def _stamp_transfer_extras(self) -> None:
        """Record adaptive-transfer-stack statistics in ``report.extra``.

        Only keys for features that were actually enabled appear, so the
        default run's report is unchanged field-for-field.
        """
        extra = self.report.extra
        if self._multifd is not None:
            extra["multifd_channels"] = self._multifd.nchannels
            extra["multifd_bytes_by_channel"] = [
                chan.total_bytes for chan in self._multifd.channels]
        if self._disk_delta is not None:
            extra["delta_disk"] = self._disk_delta.summary()
        if self._page_delta is not None:
            extra["delta_mem"] = self._page_delta.summary()
        if self._converge is not None:
            summary = self._converge.summary()
            extra["auto_converge_steps"] = summary["steps"]
            extra["auto_converge_final_factor"] = summary["final_factor"]
            extra["auto_converge_log"] = summary["log"]

    def _abort(self, src_driver, memory_logging: bool) -> Generator:
        """Tear the migration down with the domain untouched on the source.

        Write tracking stops, the destination is told to discard the
        partial copy, and the report is stamped as aborted.  The guest
        never noticed anything.
        """
        report = self.report
        src_driver.stop_tracking(TRACKING_NAME)
        if self._converge is not None:
            self._converge.release()  # guest stays: unthrottle it
        if self._store is not None and self._store.is_open:
            self._store.complete()  # cancelled on purpose: nothing pending
        if memory_logging and self.domain.memory.logging:
            self.domain.memory.stop_logging()
        yield from self.fwd.send(ControlMsg("migration-aborted"),
                                 category="control", limited=False)
        yield self.fwd.recv()  # destination acknowledges and discards
        report.extra["aborted"] = True
        report.ended_at = self.env.now
        report.bytes_by_category = self._ledger_delta(self._ledger_before)
        self._stamp_transfer_extras()
        self.env.tracer.instant("migration:aborted", category="migration",
                                phase=self._phase)
        self.env.tracer.close_open(aborted=True)
        return report

    def _on_failure(self, exc) -> Optional[VirtualBlockDevice]:
        """Failure bookkeeping on top of the base-class path.

        The guest keeps running on the source untouched.  Crucially the
        ``"precopy"`` tracking bitmap is **left registered**: it absorbs
        the blocks the failed batch never confirmed at the destination
        plus every write during the retry backoff, so the next attempt is
        an incremental migration over exactly the out-of-date set.
        """
        surviving = 0
        keep_vbd = None
        if self._converge is not None:
            # The guest keeps running on the source; never leave it
            # throttled across the retry backoff.
            self._converge.release()
        if (self._src_driver is not None
                and self._src_driver.has_tracking(TRACKING_NAME)):
            bitmap = self._src_driver.tracking_bitmap(TRACKING_NAME)
            if self._block_streamer is not None:
                pending = self._block_streamer.unconfirmed_indices()
                if pending.size:
                    bitmap.set_many(pending)
            surviving = bitmap.count()
            keep_vbd = self._dest_vbd_inflight
        elif (self.source.crashed and self._store is not None
              and self._store.recoverable):
            # The crash destroyed the in-memory bitmap, but the persisted
            # snapshot+journal can rebuild a conservative pending set once
            # the host restarts — keep the partial destination copy so
            # that retry is still incremental.
            keep_vbd = self._dest_vbd_inflight
            self.report.extra["persisted_bitmap_recoverable"] = True
        self.report.extra["surviving_dirty_blocks"] = int(surviving)
        self._stamp_transfer_extras()
        return keep_vbd

    def _failure_attrs(self) -> dict:
        return dict(surviving_dirty_blocks=self.report.extra.get(
            "surviving_dirty_blocks", 0))

    def _unexplained_diff(self, src_vbd: VirtualBlockDevice,
                          dest_vbd: VirtualBlockDevice, dst_driver):
        """Blocks that differ between the disks *without* a recorded guest
        write explaining them.  Must be empty for a consistent migration
        (destination may legitimately diverge only where BM_3 marks)."""
        diff = src_vbd.diff_blocks(dest_vbd)
        if diff.size == 0 or not self.config.track_incremental:
            return diff
        im_bitmap = dst_driver.tracking_bitmap(IM_TRACKING_NAME)
        return diff[~im_bitmap.test_many(diff)]
