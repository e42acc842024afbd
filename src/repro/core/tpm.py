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
from ..net.messages import BitmapMsg, ControlMsg
from ..storage.vbd import VirtualBlockDevice
from ..vm.domain import Domain
from ..vm.host import Host
from .config import MigrationConfig
from .postcopy import PostCopySynchronizer
from .precopy import TRACKING_NAME, DiskPreCopier
from .scheme import MigrationScheme
from .transfer import BlockStreamer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment

#: Tracking-name prefix of the IM map (BM_3): ``im:<host>`` records the
#: writes since the domain left ``<host>``, whose stale copy it describes,
#: and is consumed by the next migration back there.
IM_TRACKING_NAME = "im"


class ThreePhaseMigration(MigrationScheme):
    """One whole-system live migration, source → destination."""

    name = "tpm"
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
        resume: bool = False,
    ) -> None:
        super().__init__(env, domain, source, destination, fwd_channel,
                         rev_channel, config, workload_name)
        #: IM: the live divergence bitmap ``im:<destination>`` (writes
        #: since the domain left the destination) whose dirty set the
        #: first iteration transfers; None = the whole device.  It keeps
        #: tracking through the init handshake and is stopped and read
        #: only when pre-copy tracking starts, so a write in between is
        #: never missed.
        self.im_bitmap = im_bitmap
        #: IM: reuse this stale VBD on the destination (None = fresh one).
        self.dest_vbd = dest_vbd
        #: True when retrying a failed attempt: the disk pre-copy adopts
        #: the surviving ``"precopy"`` bitmap instead of registering a
        #: fresh one and copying the whole device.
        self.resume = resume
        self._block_streamer: Optional[BlockStreamer] = None
        self._src_driver = None
        #: Adaptive transfer stack (all None unless the config enables
        #: them): multifd lanes (empty on one channel), per-stream delta
        #: caches, and the auto-converge throttle controller.
        self._lanes: list[Channel] = []
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
        if cfg.multifd_channels > 1:
            # QEMU-style multifd: N lanes over the same link (the wire
            # serialises them, so total wire time is conserved), sharing
            # the base channel's limiter (aggregate pacing), compressor
            # and sender.  Registering them lets the report's byte ledger
            # and the cluster conservation audit see every striped byte.
            fwd = self.fwd
            self._lanes = [
                Channel(env, fwd.link, limiter=fwd.limiter,
                        name=f"{fwd.name}:fd{i}", compressor=fwd.compressor,
                        sender=fwd.sender)
                for i in range(cfg.multifd_channels)]
            self.extra_channels.extend(self._lanes)
        disk_delta = page_delta = None
        if cfg.delta_cache_mb > 0:
            from ..net.delta import DeltaCache
            from ..units import MiB

            cache_nbytes = cfg.delta_cache_mb * MiB
            disk_delta = self._disk_delta = DeltaCache(
                cache_nbytes, src_vbd.block_size, name="delta.disk")
            if cfg.include_memory:
                page_delta = self._page_delta = DeltaCache(
                    cache_nbytes, domain.memory.page_size, name="delta.mem")
        converge = None
        if cfg.auto_converge:
            from .converge import AutoConvergeController

            converge = self._converge = AutoConvergeController(env, domain)
        block_streamer = BlockStreamer(
            env, self.source.disk, src_vbd, self.destination.disk,
            dest_vbd, self.fwd, cfg, lanes=self._lanes, delta=disk_delta)
        self._block_streamer = block_streamer
        # No yield from here to the pre-copier's start_tracking: every
        # write lands either in this snapshot or in the tracking bitmap.
        # The consumed divergence map stops here: its stale copy is this
        # migration's destination VBD from now on.
        initial_indices = None
        if self.im_bitmap is not None:
            src_driver.stop_tracking(
                f"{IM_TRACKING_NAME}:{self.destination.name}")
            initial_indices = self.im_bitmap.dirty_indices()
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
                domain.domain_id, TRACKING_NAME,
                nbits=src_vbd.nblocks, policy=cfg.persist_sync_policy)
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
            env, self.source, src_driver, block_streamer, cfg,
            initial_indices=initial_indices,
            resume=self.resume, store=store, converge=converge)
        report.disk_iterations = yield from precopier.run()
        if precopier.adopted_recovered:
            report.extra["recovered_from_persistence"] = True
        report.precopy_disk_ended_at = env.now
        tracer.end(disk_span,
                   iterations=len(report.disk_iterations),
                   retransferred_blocks=report.retransferred_blocks)

        # -- phase 1b: iterative memory pre-copy ----------------------
        page_streamer = (self._page_streamer(lanes=self._lanes,
                                             delta=page_delta)
                         if cfg.include_memory else None)
        yield from self._precopy_memory(page_streamer)

        # -- phase 2: freeze-and-copy -------------------------------------
        if converge is not None:
            # The guest suspends now and must resume unthrottled on the
            # destination; the pre-copy the throttle served is over.
            converge.release()
        freeze_span = yield from self._freeze()
        cpu_snapshot = None
        if page_streamer is not None:
            cpu_snapshot = yield from self._ship_memory(page_streamer)

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

        dst_driver = self._switch_over(dest_vbd, page_streamer, cpu_snapshot)

        # BM_2: the destination's copy of the shipped bitmap;
        # BM_1: the source keeps `final_bitmap` itself.
        transferred_bitmap = make_bitmap(bitmap_msg.nbits,
                                         cfg.bitmap_layout,
                                         leaf_bits=cfg.leaf_bits)
        transferred_bitmap.set_many(bitmap_msg.dirty_indices)

        # BM_3: new writes on the destination, for a later IM (§V) back
        # to the source, whose disk is now the stale copy.
        dst_driver.start_tracking(
            f"{IM_TRACKING_NAME}:{self.source.name}",
            make_bitmap(dest_vbd.nblocks, cfg.bitmap_layout,
                        leaf_bits=cfg.leaf_bits))

        synchronizer = PostCopySynchronizer(
            env, self.source.disk, src_vbd, self.destination.disk, dest_vbd,
            dst_driver, self.fwd, self.rev,
            source_bitmap=final_bitmap,
            transferred_bitmap=transferred_bitmap,
            config=cfg)

        yield from self._resume(
            freeze_span,
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

        self._stamp_transfer_extras()
        self._verify(src_vbd, dest_vbd)
        return report

    # ------------------------------------------------------------------

    def _stamp_transfer_extras(self) -> None:
        """Record adaptive-transfer-stack statistics in ``report.extra``.

        Only keys for features that were actually enabled appear, so the
        default run's report is unchanged field-for-field.
        """
        extra = self.report.extra
        if self._lanes:
            extra["multifd_channels"] = len(self._lanes)
            extra["multifd_bytes_by_channel"] = [
                chan.total_bytes for chan in self._lanes]
        if self._disk_delta is not None:
            extra["delta_disk"] = self._disk_delta.summary()
        if self._page_delta is not None:
            extra["delta_mem"] = self._page_delta.summary()
        if self._converge is not None:
            summary = self._converge.summary()
            extra["auto_converge_steps"] = summary["steps"]
            extra["auto_converge_final_factor"] = summary["final_factor"]
            extra["auto_converge_log"] = summary["log"]

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
