"""Tests for multifd-style parallel lanes over one migration link."""

import pytest

from repro.cluster.accounting import assert_conserved, audit_link_bytes
from repro.core import (MigrationRetrier, RetryPolicy,
                        ThreePhaseMigration)
from repro.errors import MigrationError
from repro.faults import FaultInjector, FaultPlan
from repro.net import Compressor, TokenBucket
from repro.units import MB


def run_tpm(bed, config):
    fwd, rev = bed.channels()
    migration = ThreePhaseMigration(bed.env, bed.domain, bed.source,
                                    bed.destination, fwd, rev, config)
    report = bed.env.run(until=bed.env.process(migration.run()))
    return migration, report


class TestMultiFD:
    def test_requires_at_least_two_channels(self, make_bed):
        """Lanes exist only for two or more channels: fewer than one is
        rejected, one channel runs on the base channel alone, and N >= 2
        builds exactly N lanes."""
        bed = make_bed()
        for bad in (0, -3):
            with pytest.raises(MigrationError):
                bed.config.replace(multifd_channels=bad)
        single, report = run_tpm(bed, bed.config)
        assert report.consistency_verified
        assert single.extra_channels == []
        bed = make_bed()
        double, report = run_tpm(bed, bed.config.replace(multifd_channels=2))
        assert report.consistency_verified
        assert len(double.extra_channels) == 2


class TestMultiFDMigration:
    def test_striped_migration_is_consistent(self, make_bed):
        bed = make_bed()
        bed.random_writer()
        report = bed.migrate(bed.config.replace(multifd_channels=4))
        assert report.consistency_verified
        per_channel = report.extra["multifd_bytes_by_channel"]
        assert len(per_channel) == 4
        assert all(b > 0 for b in per_channel)

    def test_single_channel_config_has_no_multifd(self, bed):
        """One channel builds no lanes: nothing extra is registered and
        the report carries no multifd keys."""
        migration, report = run_tpm(bed, bed.config)
        assert report.consistency_verified
        assert migration.extra_channels == []
        assert "multifd_channels" not in report.extra
        assert "multifd_bytes_by_channel" not in report.extra

    def test_byte_conservation_audit(self, bed):
        """Lane ledgers + control channels must sum exactly to the shared
        link's wire counter (the cluster audit invariant)."""
        migration, report = run_tpm(bed,
                                    bed.config.replace(multifd_channels=4))
        assert report.consistency_verified
        # channels includes fwd, rev, and all four lanes.
        assert len(migration.channels) == 6
        audits = audit_link_bytes([migration])
        assert audits and all(a.conserved for a in audits)
        assert_conserved([migration])
        # The lanes carried real traffic, not just the base channel.
        assert sum(chan.total_bytes for chan in migration.extra_channels) > 0

    def test_striped_bytes_match_unstriped(self, make_bed):
        """Striping changes scheduling, not payload: with an idle guest the
        byte total equals the single-channel run exactly."""
        totals = {}
        for label, n in (("plain", 1), ("striped", 4)):
            bed = make_bed()
            report = bed.migrate(bed.config.replace(multifd_channels=n))
            assert report.consistency_verified
            totals[label] = report.migrated_bytes
        assert totals["striped"] == totals["plain"]

    def test_byte_mode_content_survives_striping(self, make_bed):
        bed = make_bed(nblocks=256, npages=64, data=True)
        bed.random_writer(region=(0, 128), interval=1e-3, nblocks=2)
        report = bed.migrate(bed.config.replace(multifd_channels=3))
        assert report.consistency_verified


class TestLanes:
    """The lanes ``ThreePhaseMigration`` builds for ``multifd_channels``."""

    def test_lanes_share_link_limiter_compressor(self, bed):
        """The lanes ride the base channel's link and share its limiter
        (aggregate pacing), compressor and sender; they are named
        ``<fwd>:fd0 .. fdN-1``."""
        fwd, rev = bed.channels()
        fwd.limiter = TokenBucket(bed.env, 100 * MB)
        fwd.compressor = Compressor(ratio=2.0)
        fwd.sender = bed.source
        migration = ThreePhaseMigration(
            bed.env, bed.domain, bed.source, bed.destination, fwd, rev,
            bed.config.replace(multifd_channels=4))
        bed.env.run(until=bed.env.process(migration.run()))
        lanes = migration.extra_channels
        assert [c.name for c in lanes] == [
            "test:fwd:fd0", "test:fwd:fd1", "test:fwd:fd2", "test:fwd:fd3"]
        for chan in lanes:
            assert chan.link is fwd.link
            assert chan.limiter is fwd.limiter
            assert chan.compressor is fwd.compressor
            assert chan.sender is fwd.sender
        assert migration.report.extra["multifd_bytes_by_channel"] == [
            chan.total_bytes for chan in lanes]


class TestMultifdRetry:
    """A disk pre-copy blackout under an incremental retrier, on one lane
    and on four: the retry resumes from the unconfirmed set."""

    def run_with_retry(self, bed, nchannels, incremental):
        bed.random_writer(region=(0, 300), interval=0.005, seed=11)
        plan = (FaultPlan(send_timeout=0.05)
                .blackout(duration=0.2, phase="precopy-disk", offset=0.02))
        FaultInjector(bed.env, plan).inject(bed.migrator)
        retrier = MigrationRetrier(bed.migrator, RetryPolicy(
            max_attempts=3, initial_backoff=0.3, incremental=incremental))
        proc = retrier.migrate_process(
            bed.domain, bed.destination,
            bed.config.replace(multifd_channels=nchannels))
        return bed.env.run(until=proc)

    @pytest.mark.parametrize("nchannels", [1, 4])
    def test_incremental_retry_is_consistent_and_conserved(self, make_bed,
                                                           nchannels):
        bed = make_bed()
        report = self.run_with_retry(bed, nchannels, incremental=True)
        assert report.attempts == 2
        assert report.failed_attempts[0].extra["failed_phase"] == (
            "precopy-disk")
        assert report.consistency_verified
        assert bed.domain.host is bed.destination
        assert_conserved(bed.migrator.migrations)
        if nchannels > 1:
            assert report.extra["multifd_channels"] == nchannels

    @pytest.mark.parametrize("nchannels", [1, 4])
    def test_incremental_retry_moves_fewer_disk_bytes(self, make_bed,
                                                      nchannels):
        incremental = self.run_with_retry(make_bed(), nchannels,
                                          incremental=True)
        scratch = self.run_with_retry(make_bed(), nchannels,
                                      incremental=False)
        assert incremental.attempts == scratch.attempts == 2
        assert scratch.consistency_verified
        assert (incremental.bytes_by_category["disk"]
                < scratch.bytes_by_category["disk"])
