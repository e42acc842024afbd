"""Integration-grade unit tests for the full Three-Phase Migration."""

import numpy as np
import pytest

from repro.core import IM_TRACKING_NAME, MigrationConfig
from repro.errors import MigrationError
from repro.units import MB


class TestQuietMigration:
    def test_report_shape(self, bed):
        report = bed.migrate()
        assert report.scheme == "tpm"
        assert not report.incremental
        assert report.consistency_verified
        assert len(report.disk_iterations) == 1
        assert report.disk_iterations[0].units_sent == bed.vbd.nblocks
        assert report.remaining_dirty_blocks == 0

    def test_phase_ordering(self, bed):
        r = bed.migrate()
        assert (r.started_at <= r.precopy_disk_started_at
                <= r.precopy_disk_ended_at <= r.precopy_mem_started_at
                <= r.precopy_mem_ended_at <= r.suspended_at
                <= r.resumed_at <= r.ended_at)

    def test_domain_lands_on_destination(self, bed):
        bed.migrate()
        assert bed.domain.host is bed.destination
        assert bed.domain.running

    def test_ledger_has_all_categories(self, bed):
        report = bed.migrate()
        for category in ("disk", "memory", "bitmap", "cpu", "control"):
            assert report.bytes_by_category.get(category, 0) > 0, category

    def test_migrated_data_at_least_disk_plus_memory(self, bed):
        report = bed.migrate()
        floor = bed.vbd.nbytes + bed.domain.memory.nbytes
        assert report.migrated_bytes >= floor

    def test_downtime_far_below_total(self, bed):
        report = bed.migrate()
        assert report.downtime < 0.05 * report.total_migration_time

    def test_im_tracking_started_on_destination(self, bed):
        """BM_3 is named after the host whose stale copy it describes."""
        bed.migrate()
        driver = bed.destination.driver_of(bed.domain.domain_id)
        assert driver.tracking_names() == [f"{IM_TRACKING_NAME}:source"]
        assert driver.tracking_bitmap(
            f"{IM_TRACKING_NAME}:source").count() == 0

    def test_migrating_from_wrong_host_rejected(self, bed):
        from repro.core import ThreePhaseMigration

        fwd, rev = bed.channels()
        wrong = ThreePhaseMigration(bed.env, bed.domain, bed.destination,
                                    bed.source, fwd, rev, bed.config)

        def proc(env):
            return (yield from wrong.run())

        with pytest.raises(MigrationError):
            bed.env.run(until=bed.env.process(proc(bed.env)))


class TestBusyMigration:
    def test_consistency_under_steady_writes(self, bed):
        bed.random_writer(region=(0, 400), interval=0.003)
        report = bed.migrate()
        assert report.consistency_verified
        assert len(report.disk_iterations) >= 2
        assert report.retransferred_blocks > 0

    def test_workload_continues_after_migration(self, bed):
        bed.random_writer(region=(0, 400), interval=0.003)
        bed.migrate()
        writes_before = bed.destination.driver_of(
            bed.domain.domain_id).writes
        bed.env.run(until=bed.env.now + 1.0)
        writes_after = bed.destination.driver_of(
            bed.domain.domain_id).writes
        assert writes_after > writes_before

    def test_guest_io_gap_is_about_downtime(self, bed):
        """The service outage seen by the guest matches the freeze window."""
        gaps = []
        last = [0.0]

        def guest(env):
            while True:
                yield from bed.domain.write(1)
                gaps.append(env.now - last[0])
                last[0] = env.now
                yield env.timeout(0.002)

        bed.env.process(guest(bed.env))
        report = bed.migrate()
        bed.env.run(until=bed.env.now + 0.1)
        # Worst-case gap is dominated by the freeze, not by orders more.
        assert max(gaps) == pytest.approx(report.downtime, abs=0.05)

    def test_memory_rounds_run(self, bed):
        bed.random_writer(region=(0, 400), interval=0.003, touch_pages=16)
        report = bed.migrate()
        assert len(report.mem_rounds) >= 1
        assert report.mem_rounds[0].units_sent == bed.domain.memory.npages


class TestByteModeIntegrity:
    def test_actual_bytes_identical(self, byte_bed):
        byte_bed.random_writer(region=(0, 64), interval=0.002)
        report = byte_bed.migrate()
        assert report.consistency_verified
        src_vbd = byte_bed.vbd
        dst_vbd = byte_bed.destination.vbd_of(byte_bed.domain.domain_id)
        # The shared rule: no block is older on the destination ...
        assert dst_vbd.lagging_blocks(src_vbd).size == 0
        # ... and where the versions match, so do the bytes.
        same = src_vbd.snapshot() == dst_vbd.snapshot()
        assert same.any()
        assert np.array_equal(src_vbd.read_data(0, src_vbd.nblocks)[same],
                              dst_vbd.read_data(0, dst_vbd.nblocks)[same])


class TestConfigVariants:
    def test_storage_only_migration(self, bed):
        report = bed.migrate(bed.config.replace(include_memory=False))
        assert report.consistency_verified
        assert report.mem_rounds == []
        assert "memory" not in report.bytes_by_category

    def test_layered_bitmap_layout(self, bed):
        report = bed.migrate(bed.config.replace(bitmap_layout="layered"))
        assert report.consistency_verified

    def test_rate_limit_slows_precopy(self, make_bed):
        times = {}
        for label, limit in (("fast", None), ("slow", 4 * MB)):
            fresh = make_bed()
            cfg = fresh.config.replace(rate_limit=limit)
            report = fresh.migrate(cfg)
            times[label] = (report.precopy_disk_ended_at
                            - report.precopy_disk_started_at)
        assert times["slow"] > 1.5 * times["fast"]
