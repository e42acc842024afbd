"""Unit tests for the post-copy push-and-pull synchronizer.

These exercise the paper's two §IV-A-3 algorithms path by path: pure push,
pull-on-read, write-cancels-transfer, the drop rule for superseded pushes,
and the pending-request queue.
"""

import numpy as np
import pytest

from repro.bitmap import FlatBitmap
from repro.core import MigrationConfig, PostCopySynchronizer
from repro.errors import MigrationError
from repro.workloads import Workload


def make_postcopy(bed, dirty_blocks, config=None):
    """Fabricate the state right after freeze-and-copy: domain on the
    destination, all blocks synced except ``dirty_blocks`` (newer on the
    source), both bitmaps marking exactly those."""
    env = bed.env
    nblocks = bed.vbd.nblocks
    src_vbd = bed.vbd
    dest_vbd = bed.destination.prepare_vbd(nblocks)

    all_idx = np.arange(nblocks, dtype=np.int64)
    stamps, data = src_vbd.export_blocks(all_idx)
    dest_vbd.import_blocks(all_idx, stamps, data)
    dirty = np.asarray(dirty_blocks, dtype=np.int64)
    for b in dirty:
        src_vbd.write(int(b))  # source copy is now newer

    dom_id = bed.domain.domain_id
    bed.source.detach_domain(dom_id)
    driver = bed.destination.attach_domain(bed.domain, dest_vbd)
    driver.start_tracking("im", FlatBitmap(nblocks))

    bm1 = FlatBitmap(nblocks)
    bm1.set_many(dirty)
    bm2 = bm1.copy()
    fwd, rev = bed.channels("postcopy")
    cfg = config if config is not None else bed.config
    sync = PostCopySynchronizer(
        env, bed.source.disk, src_vbd, bed.destination.disk, dest_vbd,
        driver, fwd, rev, source_bitmap=bm1, transferred_bitmap=bm2,
        config=cfg)
    return sync, dest_vbd, driver


def run_sync(bed, sync):
    def proc(env):
        return (yield from sync.run())

    return bed.env.run(until=bed.env.process(proc(bed.env)))


class TestPushOnly:
    def test_all_blocks_pushed_and_consistent(self, bed):
        dirty = [5, 17, 100, 1999]
        sync, dest_vbd, _ = make_postcopy(bed, dirty)
        stats = run_sync(bed, sync)
        assert stats.pushed_blocks == 4
        assert stats.pulled_blocks == 0
        assert stats.dropped_blocks == 0
        assert dest_vbd.identical_to(bed.vbd)
        assert sync.transferred_bitmap.count() == 0

    def test_empty_dirty_set_finishes_immediately(self, bed):
        sync, dest_vbd, _ = make_postcopy(bed, [])
        stats = run_sync(bed, sync)
        assert stats.pushed_blocks == 0
        assert dest_vbd.identical_to(bed.vbd)

    def test_interceptor_uninstalled_after_run(self, bed):
        sync, _, driver = make_postcopy(bed, [1])
        run_sync(bed, sync)
        assert driver.interceptor is None

    def test_finite_duration(self, bed):
        sync, _, _ = make_postcopy(bed, list(range(0, 500)))
        stats = run_sync(bed, sync)
        assert stats.duration < 10.0  # finite dependency on the source


class TestPullOnRead:
    def test_read_of_dirty_block_pulls(self, bed):
        # Make the dirty list long so pushes take a while; read the LAST
        # block in push order immediately -> must be pulled.
        dirty = list(range(0, 400))
        sync, dest_vbd, _ = make_postcopy(bed, dirty)
        outcome = {}

        def guest(env):
            yield from bed.domain.read(399)
            outcome["read_done_at"] = env.now

        bed.env.process(guest(bed.env))
        stats = run_sync(bed, sync)
        assert stats.pulled_blocks >= 1
        assert stats.stalled_reads >= 1
        assert stats.stall_time > 0
        assert outcome["read_done_at"] < stats.ended_at  # served early
        assert dest_vbd.identical_to(bed.vbd)

    def test_read_of_clean_block_never_stalls(self, bed):
        sync, _, _ = make_postcopy(bed, [100])
        done = {}

        def guest(env):
            yield from bed.domain.read(5)  # clean block
            done["at"] = env.now

        bed.env.process(guest(bed.env))
        stats = run_sync(bed, sync)
        assert stats.stalled_reads == 0
        assert stats.pulled_blocks == 0

    def test_duplicate_reads_send_one_pull(self, bed):
        dirty = list(range(0, 400))
        sync, _, _ = make_postcopy(bed, dirty)

        def guest(env):
            yield from bed.domain.read(399)

        def guest2(env):
            yield from bed.domain.read(399)

        bed.env.process(guest(bed.env))
        bed.env.process(guest2(bed.env))
        stats = run_sync(bed, sync)
        # The block crossed the wire as a pull only once (a second copy may
        # arrive as the ordinary push and be dropped).
        assert stats.pulled_blocks <= 1


class TestWriteCancelsTransfer:
    def test_write_clears_bit_and_push_is_dropped(self, bed):
        dirty = list(range(0, 300))
        sync, dest_vbd, driver = make_postcopy(bed, dirty)

        def guest(env):
            # Overwrite the LAST dirty block before its push arrives.
            yield from bed.domain.write(299)

        bed.env.process(guest(bed.env))
        stats = run_sync(bed, sync)
        assert stats.dropped_blocks >= 1
        # Destination holds the guest's newer write, not the source copy.
        assert dest_vbd.lagging_blocks(bed.vbd).size == 0
        ahead = bed.vbd.lagging_blocks(dest_vbd)
        assert 299 in ahead.tolist()
        # ... and that divergence is exactly what the IM bitmap records.
        im = driver.tracking_bitmap("im")
        assert im.test(299)
        assert set(ahead.tolist()) <= set(im.dirty_indices().tolist())

    def test_sync_waits_for_cancelling_write_to_land(self, bed):
        """A write that cancels the last dirty block declares
        synchronization when issued, but the destination holds its data
        only once the disk has served it.  The phase returns then, so the
        destination verifies at once, and ``ended_at`` stays the
        synchronization instant."""
        sync, dest_vbd, _ = make_postcopy(bed, [5])
        times = {}

        def guest(env):
            times["issued"] = env.now
            # 256 blocks (1 MiB) keep the disk busy long after the push
            # of block 5 has arrived and been dropped.
            yield from bed.domain.write(0, 256)
            times["landed"] = env.now

        bed.env.process(guest(bed.env))
        stats = run_sync(bed, sync)
        assert stats.dropped_blocks == 1
        assert stats.ended_at == times["issued"]
        assert bed.env.now == times["landed"] > stats.ended_at + 5e-3
        assert dest_vbd.lagging_blocks(bed.vbd).size == 0

    def test_write_during_receive_drops_the_block(self, bed, monkeypatch):
        """A write that supersedes a block while the receiver is writing
        the pushed copy to disk still wins: the drop rule holds at the
        update, so the copy is dropped, not imported and counted twice."""
        sync, dest_vbd, _ = make_postcopy(bed, [5])
        disk = bed.destination.disk
        real_write = disk.write
        times = {}

        def guest(env):
            times["issued"] = env.now
            yield from bed.domain.write(5)

        def write_racing_the_guest(nbytes):
            monkeypatch.setattr(disk, "write", real_write)
            bed.env.process(guest(bed.env))
            return real_write(nbytes)

        monkeypatch.setattr(disk, "write", write_racing_the_guest)
        stats = run_sync(bed, sync)
        assert (stats.pushed_blocks, stats.dropped_blocks) == (0, 1)
        assert stats.ended_at == times["issued"]
        assert dest_vbd.lagging_blocks(bed.vbd).size == 0

    def test_stopped_workload_write_still_lands(self, bed):
        """Stopping the workload mid-write does not cut the write short:
        it has already cancelled the push of block 5, so only its own
        data can bring that block up to date."""
        sync, dest_vbd, _ = make_postcopy(bed, [5])

        class BigWriter(Workload):
            name = "bigwriter"

            def run(self, env):
                while True:
                    yield from self.write(0, 256)
                    self.account(256 * bed.vbd.block_size)

        workload = BigWriter()
        workload.bind(bed.domain)
        sync_proc = bed.env.process(sync.run())
        workload.start(bed.env)
        bed.env.run(until=1e-3)  # the write is queued or in service
        assert bed.domain.driver.inflight == 1
        assert not sync.transferred_bitmap.test(5)
        workload.stop()
        stats = bed.env.run(until=sync_proc)
        bed.env.run()
        assert stats.dropped_blocks == 1
        assert dest_vbd.lagging_blocks(bed.vbd).size == 0
        assert workload.ops == 1  # the issued write completed, no more
        assert not workload.process.is_alive

    def test_write_to_clean_block_tracked_for_im(self, bed):
        sync, _, driver = make_postcopy(bed, [100])

        def guest(env):
            yield from bed.domain.write(5)

        bed.env.process(guest(bed.env))
        run_sync(bed, sync)
        assert driver.tracking_bitmap("im").test(5)

    def test_write_wakes_pending_read(self, bed):
        """Documented deviation: a write to a block a read is waiting on
        releases that read instead of leaving it pending forever."""
        dirty = list(range(0, 300))
        sync, _, _ = make_postcopy(bed, dirty)
        done = {}

        def reader(env):
            yield from bed.domain.read(299)
            done["read"] = env.now

        def writer(env):
            yield env.timeout(0.0001)
            yield from bed.domain.write(299)
            done["write"] = env.now

        bed.env.process(reader(bed.env))
        bed.env.process(writer(bed.env))
        stats = run_sync(bed, sync)
        assert "read" in done  # liveness
        assert done["read"] >= done["write"]


class TestPullOnlyMode:
    """Ablation: post-copy without the push stream (pure on-demand pull)."""

    def test_completes_only_after_guest_touches_everything(self, bed):
        dirty = [1, 2, 3, 4]
        cfg = bed.config.replace(postcopy_push=False)
        sync, dest_vbd, _ = make_postcopy(bed, dirty, config=cfg)

        def guest(env):
            yield env.timeout(0.05)
            for b in dirty:
                yield from bed.domain.read(b)

        bed.env.process(guest(bed.env))
        stats = run_sync(bed, sync)
        assert stats.pulled_blocks == len(dirty)
        assert stats.pushed_blocks == 0
        assert stats.ended_at >= 0.05  # waited for the guest, not the push
        assert dest_vbd.identical_to(bed.vbd)

    def test_guest_writes_also_converge_it(self, bed):
        dirty = [10, 11]
        cfg = bed.config.replace(postcopy_push=False)
        sync, dest_vbd, driver = make_postcopy(bed, dirty, config=cfg)

        def guest(env):
            yield from bed.domain.write(10)
            yield from bed.domain.read(11)

        bed.env.process(guest(bed.env))
        stats = run_sync(bed, sync)
        assert stats.pulled_blocks == 1
        assert sync.transferred_bitmap.count() == 0

    def test_empty_dirty_set_trivially_done(self, bed):
        cfg = bed.config.replace(postcopy_push=False)
        sync, _, _ = make_postcopy(bed, [], config=cfg)
        stats = run_sync(bed, sync)
        assert stats.pulled_blocks == 0


class TestStop:
    @pytest.mark.parametrize("push", [True, False])
    def test_stop_ends_every_worker(self, bed, push):
        cfg = bed.config.replace(postcopy_push=push)
        sync, _, driver = make_postcopy(bed, list(range(0, 1500)),
                                        config=cfg)
        proc = bed.env.process(sync.run())
        bed.env.run(until=0.002)  # pushes (or the idle pull path) mid-way
        workers = list(sync._workers)
        assert workers and all(w.is_alive for w in workers)
        sync.stop()
        assert driver.interceptor is None
        # An Interrupt escaping a worker would fail the run here.
        stats = bed.env.run(until=proc)
        assert stats is sync.stats
        assert not any(w.is_alive for w in workers)
        sync.stop()  # idempotent
        bed.env.run(until=bed.env.now + 0.01)

    def test_stop_after_pull_only_synchronized(self, bed):
        cfg = bed.config.replace(postcopy_push=False)
        sync, _, _ = make_postcopy(bed, [3], config=cfg)

        def guest(env):
            yield from bed.domain.read(3)

        bed.env.process(guest(bed.env))
        stats = run_sync(bed, sync)
        assert stats.pulled_blocks == 1
        sync.stop()  # the watcher already ended the workers
        bed.env.run(until=bed.env.now + 0.01)


class TestCompletion:
    def test_synchronized_time_recorded(self, bed):
        sync, _, _ = make_postcopy(bed, [1, 2, 3])
        stats = run_sync(bed, sync)
        assert stats.started_at <= stats.ended_at
        assert sync._synchronized_at is not None

    def test_source_bitmap_drained(self, bed):
        sync, _, _ = make_postcopy(bed, [7, 8])
        run_sync(bed, sync)
        assert sync.source_bitmap.count() == 0
