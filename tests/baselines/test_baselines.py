"""Unit tests for the four baseline migration schemes."""

import pytest

from repro.analysis.experiments import run_baseline_experiment
from repro.baselines import (
    DeltaQueueMigration,
    FreezeAndCopyMigration,
    OnDemandMigration,
    SharedStorageMigration,
    availability,
)
from repro.net import Channel

SCALE = 0.003


def run_scheme(bed, cls, config=None, **kwargs):
    fwd, rev = bed.channels("baseline")
    migration = cls(bed.env, bed.domain, bed.source, bed.destination,
                    fwd, rev, config if config is not None else bed.config,
                    **kwargs)
    proc = bed.env.process(migration.run(), name="baseline")
    return bed.env.run(until=proc), migration


class TestSharedStorage:
    def test_disk_not_transferred(self, bed):
        report, _ = run_scheme(bed, SharedStorageMigration)
        assert "disk" not in report.bytes_by_category
        assert report.bytes_by_category["memory"] > 0
        assert report.consistency_verified

    def test_same_vbd_object_on_destination(self, bed):
        run_scheme(bed, SharedStorageMigration)
        assert bed.destination.vbd_of(bed.domain.domain_id) is bed.vbd

    def test_short_downtime(self, bed):
        report, _ = run_scheme(bed, SharedStorageMigration)
        assert report.downtime < 0.1


class TestFreezeAndCopy:
    def test_downtime_equals_total(self, bed):
        report, _ = run_scheme(bed, FreezeAndCopyMigration)
        assert report.downtime == pytest.approx(report.total_migration_time,
                                                rel=0.01)

    def test_consistent(self, bed):
        bed.random_writer(interval=0.005)
        bed.env.run(until=1.0)
        report, _ = run_scheme(bed, FreezeAndCopyMigration)
        assert report.consistency_verified

    def test_minimal_data_no_retransfers(self, bed):
        report, _ = run_scheme(bed, FreezeAndCopyMigration)
        floor = bed.vbd.nbytes + bed.domain.memory.nbytes
        # Only headers/indices on top of one copy of the state.
        assert report.migrated_bytes < 1.02 * floor

    def test_downtime_dwarfs_tpm(self, make_bed):
        frozen = make_bed()
        tpm = make_bed()
        fc_report, _ = run_scheme(frozen, FreezeAndCopyMigration)
        tpm_report = tpm.migrate()
        assert fc_report.downtime > 100 * tpm_report.downtime


class TestOnDemand:
    def test_residual_dependency(self, bed):
        import numpy as np

        bed.random_writer(interval=0.01)
        bed.env.run(until=0.5)
        report, mig = run_scheme(bed, OnDemandMigration)
        assert report.extra["residual_blocks_at_resume"] > 0
        assert mig.dependency_alive

        rng = np.random.default_rng(9)

        def reader(env):
            while True:
                yield from bed.domain.read(int(rng.integers(0, 2000)))
                yield env.timeout(0.01)

        bed.env.process(reader(bed.env))
        # Run the guest a while: fetches happen, dependency persists.
        bed.env.run(until=bed.env.now + 2.0)
        assert mig.fetched_blocks > 0
        assert mig.dependency_alive  # never finishes on its own
        mig.stop()
        bed.env.run(until=bed.env.now + 0.1)

    def test_reads_stall_on_fetch(self, bed):
        report, mig = run_scheme(bed, OnDemandMigration)
        done = {}

        def guest(env):
            yield from bed.domain.read(50)
            done["at"] = env.now

        bed.env.process(guest(bed.env))
        bed.env.run(until=bed.env.now + 1.0)
        assert done["at"] > 0
        assert mig.stalled_reads >= 1
        assert not mig.synchronizer.transferred_bitmap.test(50)
        mig.stop()
        bed.env.run(until=bed.env.now + 0.1)

    def test_whole_block_write_needs_no_fetch(self, bed):
        report, mig = run_scheme(bed, OnDemandMigration)

        def guest(env):
            yield from bed.domain.write(60)

        bed.env.run(until=bed.env.process(guest(bed.env)))
        assert not mig.synchronizer.transferred_bitmap.test(60)
        assert mig.stalled_reads == 0
        mig.stop()
        bed.env.run(until=bed.env.now + 0.1)

    def test_write_during_fetch_is_not_lost(self, bed):
        # The guest reads a block not fetched yet, then writes it while
        # the fetch is in flight: the arriving source copy is superseded
        # and must be dropped, not imported over the guest's write.
        report, mig = run_scheme(bed, OnDemandMigration)
        dest_vbd = bed.destination.vbd_of(bed.domain.domain_id)
        written = {}

        def reader(env):
            yield from bed.domain.read(70)

        def writer(env):
            yield env.timeout(1e-6)
            yield from bed.domain.write(70)
            written["generation"] = int(dest_vbd.read(70)[0])

        bed.env.process(reader(bed.env))
        bed.env.process(writer(bed.env))
        bed.env.run(until=bed.env.now + 0.5)
        assert mig.stalled_reads == 1
        assert written["generation"] != int(bed.vbd.read(70)[0])
        assert int(dest_vbd.read(70)[0]) == written["generation"]
        mig.stop()
        bed.env.run(until=bed.env.now + 0.1)

    def test_stop_ends_the_fetch_service(self, bed):
        report, mig = run_scheme(bed, OnDemandMigration)
        driver = bed.destination.driver_of(bed.domain.domain_id)
        workers = list(mig.synchronizer._workers)
        assert workers and all(proc.is_alive for proc in workers)
        mig.stop()
        assert driver.interceptor is None
        bed.env.run(until=bed.env.now + 0.1)  # no Interrupt escapes
        assert not any(proc.is_alive for proc in workers)
        assert mig.dependency_alive  # stopping serves no blocks

    def test_availability_formula(self):
        assert availability(0.99) == pytest.approx(0.9801)
        assert availability(0.9, machines=3) == pytest.approx(0.729)
        with pytest.raises(ValueError):
            availability(1.5)


class TestDeltaQueue:
    def test_consistent_under_writes(self, bed):
        bed.random_writer(region=(0, 500), interval=0.005)
        bed.env.run(until=0.5)
        report, mig = run_scheme(bed, DeltaQueueMigration)
        assert report.consistency_verified
        assert report.extra["delta_count"] > 0

    def test_redundancy_under_rewrites(self, bed):
        # Hammer a tiny region so rewrites are guaranteed.
        bed.random_writer(region=(0, 10), interval=0.002)
        bed.env.run(until=0.5)
        report, mig = run_scheme(bed, DeltaQueueMigration)
        assert report.extra["redundant_blocks"] > 0

    def test_io_block_time_measured(self, bed):
        bed.random_writer(region=(0, 500), interval=0.003)
        bed.env.run(until=0.5)
        report, _ = run_scheme(bed, DeltaQueueMigration)
        assert report.extra["io_block_time"] >= 0

    def test_guest_io_blocked_until_replay_done(self, bed):
        bed.random_writer(region=(0, 500), interval=0.003)
        bed.env.run(until=0.5)
        report, _ = run_scheme(bed, DeltaQueueMigration)
        # After run() returns, replay is done and I/O flows again.
        done = {}

        def guest(env):
            yield from bed.domain.read(5)
            done["at"] = env.now

        bed.env.run(until=bed.env.process(guest(bed.env)))
        assert "at" in done

    def test_throttling_engages(self, make_bed):
        bed = make_bed(link_bw=2_000_000)  # slow link: backlog builds
        bed.random_writer(region=(0, 1000), interval=0.001, nblocks=8)
        bed.env.run(until=0.5)
        report, mig = run_scheme(bed, DeltaQueueMigration,
                                 throttle_watermark=64 * 4096)
        assert report.consistency_verified
        assert report.extra["throttle_time"] > 0


class TestViaRunner:
    @pytest.mark.parametrize("scheme", ["shared-storage", "freeze-and-copy",
                                        "delta-queue"])
    def test_runner_executes_scheme(self, scheme):
        report, bed, _ = run_baseline_experiment(scheme, "idle", scale=SCALE,
                                                 warmup=1.0, tail=1.0)
        assert report.scheme == scheme

    def test_runner_on_demand_cleanup(self):
        report, bed, mig = run_baseline_experiment("on-demand", "idle",
                                                   scale=SCALE, warmup=1.0,
                                                   tail=1.0)
        assert report.scheme == "on-demand"
        mig.stop()
        bed.env.run(until=bed.env.now + 0.1)
