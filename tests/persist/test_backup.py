"""Backup chains: full + bitmap-driven incrementals, restore, crash
recovery of the tracking bitmap, and carry-across-migration."""

import pytest

from repro.core import SCHEMES
from repro.errors import PersistError
from repro.persist import BackupChain


def write_blocks(bed, blocks):
    """Run guest writes (through the driver, so tracking bitmaps see them)."""
    domain = bed.domain

    def proc(env):
        for block in blocks:
            yield from domain.ensure_running()
            yield from domain.write(int(block), 1)

    bed.env.run(until=bed.env.process(proc(bed.env), name="backup-writer"))


def live_vbd(bed):
    return bed.domain.host.vbd_of(bed.domain.domain_id)


class TestChainBasics:
    def test_full_then_incremental_capture_the_right_blocks(self, byte_bed):
        chain = BackupChain(byte_bed.domain)
        full = chain.full_backup()
        assert full.kind == "full"
        assert full.nblocks == 256          # prefilled: everything allocated
        assert chain.pending_blocks() == 0

        write_blocks(byte_bed, [3, 7, 7])
        assert chain.pending_blocks() == 2
        inc = chain.incremental_backup()
        assert inc.kind == "incremental"
        assert set(inc.indices.tolist()) == {3, 7}
        assert chain.pending_blocks() == 0

    def test_incremental_before_full_raises(self, byte_bed):
        chain = BackupChain(byte_bed.domain)
        with pytest.raises(PersistError, match="before the first full"):
            chain.incremental_backup()

    def test_tracking_bitmap_is_registered_with_the_driver(self, byte_bed):
        chain = BackupChain(byte_bed.domain)
        driver = byte_bed.source.driver_of(byte_bed.domain.domain_id)
        name = f"backup:{byte_bed.domain.domain_id}"
        assert chain.tracking_name == name
        assert driver.has_tracking(name)
        chain.close()
        assert not driver.has_tracking(name)
        assert not chain.store.is_open

    def test_nbytes_accounting(self, byte_bed):
        chain = BackupChain(byte_bed.domain)
        full = chain.full_backup()
        assert full.nbytes == full.nblocks * chain.block_size
        assert chain.total_backup_bytes() == full.nbytes


class TestRestore:
    def test_restore_matches_live_disk(self, byte_bed):
        chain = BackupChain(byte_bed.domain)
        chain.full_backup()
        write_blocks(byte_bed, [0, 10, 255])
        chain.incremental_backup()
        assert chain.restore().identical_to(live_vbd(byte_bed))

    def test_point_in_time_restore(self, byte_bed):
        chain = BackupChain(byte_bed.domain)
        chain.full_backup()
        write_blocks(byte_bed, [5])
        chain.incremental_backup()       # record 1
        write_blocks(byte_bed, [9])
        chain.incremental_backup()       # record 2

        old = chain.restore(upto=1)
        live = live_vbd(byte_bed)
        assert not old.identical_to(live)
        assert 9 in old.lagging_blocks(live).tolist()
        assert chain.restore().identical_to(live)

    def test_restore_anchors_at_latest_full(self, byte_bed):
        chain = BackupChain(byte_bed.domain)
        chain.full_backup()
        write_blocks(byte_bed, [1])
        chain.incremental_backup()
        second_full = chain.full_backup()
        assert chain.restore().identical_to(live_vbd(byte_bed))
        assert second_full.seq == 2

    def test_restore_without_full_in_range_raises(self, byte_bed):
        chain = BackupChain(byte_bed.domain)
        with pytest.raises(PersistError, match="no full backup"):
            chain.restore()


def migrate(bed, scheme):
    proc = bed.migrator.migrate_process(bed.domain, bed.destination,
                                        scheme=scheme)
    return bed.env.run(until=proc)


#: The schemes whose migration ends with every block local.  On-demand
#: returns at resume and fetches blocks on first access from then on.
SYNCHRONIZING = [name for name in SCHEMES if name != "on-demand"]


class TestAcrossMigration:
    @pytest.mark.parametrize("scheme", list(SCHEMES))
    def test_chain_keeps_accumulating_across_migration(self, byte_bed,
                                                       scheme):
        """The tp-qemu backup-with-migration scenario, for every scheme:
        deltas recorded on the source and on the destination land in
        one incremental."""
        chain = BackupChain(byte_bed.domain)
        chain.full_backup()
        write_blocks(byte_bed, [1, 2])
        bitmap = chain.bitmap

        report = migrate(byte_bed, scheme)
        assert report.consistency_verified
        assert byte_bed.domain.host is byte_bed.destination

        # The very bitmap moved; one left behind raises StorageError.
        dest_driver = byte_bed.destination.driver_of(
            byte_bed.domain.domain_id)
        assert dest_driver.tracking_bitmap(chain.tracking_name) is bitmap

        write_blocks(byte_bed, [3, 4])
        if scheme not in SYNCHRONIZING:
            # Blocks still on the source would be captured with no
            # content: the backup is refused, and the bitmap keeps them.
            with pytest.raises(PersistError, match="still synchronizing"):
                chain.incremental_backup()
            with pytest.raises(PersistError, match="still synchronizing"):
                chain.full_backup()
            assert set(chain.bitmap.dirty_indices().tolist()) == {1, 2, 3, 4}
            return
        inc = chain.incremental_backup()
        assert set(inc.indices.tolist()) == {1, 2, 3, 4}
        assert chain.restore().identical_to(live_vbd(byte_bed))


class TestAcrossCrash:
    def test_incremental_from_recovered_bitmap(self, byte_bed):
        """The tp-qemu inc-backup-with-recovered-bitmap scenario: writes
        before and after a crash of the host land in one incremental."""
        chain = BackupChain(byte_bed.domain)
        chain.full_backup()
        write_blocks(byte_bed, [3, 7])
        byte_bed.source.crash()
        byte_bed.source.restart()
        write_blocks(byte_bed, [9])

        inc = chain.incremental_backup()
        assert set(inc.indices.tolist()) == {3, 7, 9}
        assert chain.restore().identical_to(live_vbd(byte_bed))

    @pytest.mark.parametrize("scheme", SYNCHRONIZING)
    def test_store_follows_the_domain_across_migration(self, byte_bed,
                                                       scheme):
        """A crash of the old host after the move leaves the chain alone;
        a crash of the new host recovers it."""
        chain = BackupChain(byte_bed.domain)
        chain.full_backup()
        write_blocks(byte_bed, [3, 7])
        assert migrate(byte_bed, scheme).consistency_verified

        did = byte_bed.domain.domain_id
        assert byte_bed.destination.bitmap_store(
            did, chain.tracking_name) is chain.store
        byte_bed.source.crash()
        byte_bed.source.restart()
        write_blocks(byte_bed, [9])
        byte_bed.destination.crash()
        byte_bed.destination.restart()
        write_blocks(byte_bed, [11])

        inc = chain.incremental_backup()
        assert set(inc.indices.tolist()) == {3, 7, 9, 11}
        assert chain.restore().identical_to(live_vbd(byte_bed))
