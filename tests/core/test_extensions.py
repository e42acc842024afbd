"""Tests for the implemented paper-§VII extensions: guest-aware migration
and the secondary-NIC service model."""

import numpy as np
import pytest

from repro.analysis import build_testbed, mean_rate
from repro.core import MigrationConfig
from repro.errors import ReproError
from repro.net import Link
from repro.units import MB
from repro.vm import Domain, GuestMemory


class TestGuestAware:
    def test_allocated_indices(self, make_bed):
        bed = make_bed(prefill=False)
        assert bed.vbd.allocated_indices().size == 0
        bed.vbd.write(10, 5)
        assert bed.vbd.allocated_indices().tolist() == [10, 11, 12, 13, 14]
        assert bed.vbd.allocated_fraction == pytest.approx(5 / 2000)

    def test_skips_unwritten_blocks(self, make_bed):
        bed = make_bed(prefill=False)
        bed.vbd.write(0, 500)  # guest installed 500 blocks of OS
        cfg = bed.config.replace(guest_aware=True)
        report = bed.migrate(cfg)
        assert report.consistency_verified
        assert report.disk_iterations[0].units_sent == 500
        assert report.extra["guest_aware_skipped_blocks"] == 1500

    def test_data_proportional_to_usage(self, make_bed):
        sizes = {}
        for fill in (0.25, 1.0):
            bed = make_bed(prefill=False)
            bed.vbd.write(0, int(bed.vbd.nblocks * fill))
            cfg = bed.config.replace(guest_aware=True)
            report = bed.migrate(cfg)
            sizes[fill] = report.bytes_by_category["disk"]
        assert sizes[0.25] < 0.3 * sizes[1.0]

    def test_disabled_by_default_transfers_everything(self, make_bed):
        bed = make_bed(prefill=False)
        bed.vbd.write(0, 10)
        report = bed.migrate()
        assert report.disk_iterations[0].units_sent == bed.vbd.nblocks
        assert "guest_aware_skipped_blocks" not in report.extra

    def test_guest_aware_consistent_under_writes(self, make_bed):
        bed = make_bed(prefill=False)
        bed.vbd.write(0, 800)
        bed.random_writer(region=(0, 1200), interval=0.005)
        cfg = bed.config.replace(guest_aware=True)
        bed.env.run(until=0.2)
        report = bed.migrate(cfg)
        # Writes beyond the initially-allocated region are caught by the
        # tracking bitmap and retransferred like any other dirt.
        assert report.consistency_verified

    def test_im_back_migration_ignores_guest_aware(self, make_bed):
        bed = make_bed(prefill=False)
        bed.vbd.write(0, 300)
        cfg = bed.config.replace(guest_aware=True)
        bed.migrate(cfg)
        bed.env.run(until=bed.env.now + 0.5)
        back = bed.migrate(cfg)
        assert back.incremental
        assert "guest_aware_skipped_blocks" not in back.extra
        assert back.consistency_verified


class TestServiceNic:
    SCALE = 0.005

    def test_unknown_mode_rejected(self):
        with pytest.raises(ReproError):
            build_testbed("specweb", scale=self.SCALE, service_nic="wifi")

    def test_service_bytes_cross_the_nic(self):
        bed = build_testbed("specweb", scale=self.SCALE,
                            service_nic="secondary")
        bed.start_workload()
        bed.run_for(5.0)
        assert bed.workload.service_link is not None
        assert bed.workload.service_link.bytes_sent > 0

    def test_shared_nic_degrades_service_during_migration(self):
        rates = {}
        # A 640 Mbit port: the service (~70 MB/s of responses) plus the
        # migration stream (~54 MB/s) cannot both fit, so sharing hurts.
        for mode in ("shared", "secondary"):
            bed = build_testbed("specweb", scale=self.SCALE,
                                service_nic=mode, seed=5,
                                link_bandwidth=80 * MB)
            bed.start_workload()
            bed.run_for(20.0)
            report = bed.migrate()
            baseline = mean_rate(bed.metrics, "specweb:throughput", 0, 20)
            during = mean_rate(bed.metrics, "specweb:throughput",
                               report.started_at, report.ended_at)
            rates[mode] = during / baseline
        # Secondary NIC protects the service; a shared port does not.
        assert rates["secondary"] > rates["shared"] + 0.1

    def test_secondary_nic_does_not_relieve_disk(self):
        """The paper's caveat: a second NIC has 'no effect on releasing
        the stress on disk' — a disk-bound workload still suffers."""
        from repro.analysis import performance_overhead

        bed = build_testbed("bonnie", scale=self.SCALE,
                            service_nic="secondary", seed=5)
        bed.start_workload()
        bed.run_for(20.0)
        report = bed.migrate()
        result = performance_overhead(
            bed.metrics, "bonnie:write",
            migration_window=(report.precopy_disk_started_at,
                              report.precopy_disk_ended_at),
            baseline_window=(0.0, 20.0))
        assert result.overhead_fraction > 0.2
