"""End-to-end failure and recovery: a migration dies to an injected fault,
the tracking bitmap survives, and the retry resumes incrementally."""

import pytest

from repro.core import MigrationRetrier, RetryPolicy, TRACKING_NAME
from repro.errors import MigrationFailed
from repro.faults import FaultInjector, FaultPlan


def failing_plan(at=0.02, duration=1.0, send_timeout=0.05):
    """A blackout long enough that a mid-pre-copy send times out."""
    return FaultPlan(send_timeout=send_timeout).blackout(duration=duration,
                                                         at=at)


class TestFailureTeardown:
    def test_blackout_mid_precopy_fails_migration(self, bed):
        FaultInjector(bed.env, failing_plan()).inject(bed.migrator)
        proc = bed.migrator.migrate_process(bed.domain, bed.destination)
        with pytest.raises(MigrationFailed) as excinfo:
            bed.env.run(until=proc)
        failure = excinfo.value
        # The guest never noticed: still on the source, still running.
        assert bed.domain.host is bed.source
        assert bed.domain.running
        # The write-tracking bitmap is KEPT for the incremental retry.
        driver = bed.source.driver_of(bed.domain.domain_id)
        assert driver.has_tracking(TRACKING_NAME)
        assert failure.dest_vbd is not None
        report = failure.report
        assert report.extra["failed"] is True
        assert report.extra["failed_phase"] == "precopy-disk"
        assert report.extra["surviving_dirty_blocks"] > 0
        assert report.migrated_bytes > 0  # the partial transfer was paid for

    def test_failed_attempt_recorded(self, bed):
        FaultInjector(bed.env, failing_plan()).inject(bed.migrator)
        proc = bed.migrator.migrate_process(bed.domain, bed.destination)
        with pytest.raises(MigrationFailed):
            bed.env.run(until=proc)
        assert bed.migrator.history[-1].extra.get("failed")
        assert bed.migrator.has_partial_copy(bed.domain, bed.destination)

    def test_failure_during_memory_precopy_stops_logging(self, bed):
        plan = (FaultPlan(send_timeout=0.05)
                .blackout(duration=0.5, phase="precopy-mem"))
        FaultInjector(bed.env, plan).inject(bed.migrator)
        proc = bed.migrator.migrate_process(bed.domain, bed.destination)
        with pytest.raises(MigrationFailed) as excinfo:
            bed.env.run(until=proc)
        assert excinfo.value.report.extra["failed_phase"] == "precopy-mem"
        assert not bed.domain.memory.logging
        assert bed.domain.running

    def test_workload_survives_failure(self, bed):
        bed.random_writer(region=(0, 300), interval=0.005)
        FaultInjector(bed.env, failing_plan()).inject(bed.migrator)
        proc = bed.migrator.migrate_process(bed.domain, bed.destination)
        with pytest.raises(MigrationFailed):
            bed.env.run(until=proc)
        writes_before = bed.source.driver_of(bed.domain.domain_id).writes
        bed.env.run(until=bed.env.now + 0.5)
        assert bed.source.driver_of(
            bed.domain.domain_id).writes > writes_before


class TestRetry:
    def run_with_retry(self, bed, incremental, duration=0.2,
                       initial_backoff=0.3):
        bed.random_writer(region=(0, 300), interval=0.005, seed=11)
        plan = failing_plan(at=0.02, duration=duration)
        FaultInjector(bed.env, plan).inject(bed.migrator)
        retrier = MigrationRetrier(bed.migrator, RetryPolicy(
            max_attempts=3, initial_backoff=initial_backoff,
            incremental=incremental))
        proc = retrier.migrate_process(bed.domain, bed.destination)
        return bed.env.run(until=proc)

    def test_incremental_retry_succeeds_and_is_consistent(self, make_bed):
        bed = make_bed()
        report = self.run_with_retry(bed, incremental=True)
        assert report.attempts == 2
        assert report.retries == 1
        assert len(report.failed_attempts) == 1
        assert report.backoff_time == pytest.approx(0.3)
        assert report.consistency_verified
        assert bed.domain.host is bed.destination
        assert not bed.migrator._partial  # recovery state consumed

    def test_incremental_retry_moves_fewer_disk_bytes(self, make_bed):
        incremental = self.run_with_retry(make_bed(), incremental=True)
        scratch = self.run_with_retry(make_bed(), incremental=False)
        assert incremental.attempts == scratch.attempts == 2
        assert scratch.consistency_verified
        # The final attempt after an incremental resume transfers only the
        # dirty/unconfirmed set; the from-scratch baseline re-sends the
        # whole device.
        assert (incremental.bytes_by_category["disk"]
                < scratch.bytes_by_category["disk"])

    def test_attempt_durations_cover_all_attempts(self, make_bed):
        report = self.run_with_retry(make_bed(), incremental=True)
        assert len(report.attempt_durations) == 2
        assert all(d > 0 for d in report.attempt_durations)
        assert (report.migrated_bytes_all_attempts
                > report.migrated_bytes)

    def test_retrier_gives_up_after_max_attempts(self, bed):
        plan = (FaultPlan(send_timeout=0.05)
                .crash("destination", phase="precopy-disk", offset=0.01))
        FaultInjector(bed.env, plan).inject(bed.migrator)
        retrier = MigrationRetrier(bed.migrator, RetryPolicy(
            max_attempts=3, initial_backoff=0.1))
        proc = retrier.migrate_process(bed.domain, bed.destination)
        with pytest.raises(MigrationFailed, match="3 times"):
            bed.env.run(until=proc)
        assert bed.domain.host is bed.source
        assert bed.domain.running

    def test_crashed_source_fails_immediately(self, bed):
        plan = FaultPlan().crash("source", at=0.01)
        FaultInjector(bed.env, plan).inject(bed.migrator)
        bed.env.run(until=0.02)
        proc = bed.migrator.migrate_process(bed.domain, bed.destination)
        with pytest.raises(MigrationFailed, match="down"):
            bed.env.run(until=proc)

    def test_retrier_validation(self):
        """Bad retry values are rejected where the policy is built, not
        when a retrier first runs it."""
        from repro.errors import MigrationError

        with pytest.raises(MigrationError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(MigrationError, match="initial_backoff"):
            RetryPolicy(initial_backoff=-1.0)
        with pytest.raises(MigrationError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(MigrationError, match="max_backoff"):
            RetryPolicy(max_backoff=0.0)
        with pytest.raises(MigrationError, match="max_backoff"):
            RetryPolicy(max_backoff=-1.0)

    def test_backoff_is_capped_at_max_backoff(self, make_bed):
        """Regression: the delay used to grow unboundedly (0.5 * 2**k).
        With factor 10 and cap 2.0 the waits must be 1.0 + 2.0, not
        1.0 + 10.0."""
        bed = make_bed()
        bed.random_writer(region=(0, 300), interval=0.005, seed=11)
        # The blackout spans the first two attempts; only the third
        # (entered after 1.0 + 2.0 s of backoff) finds the link up.
        FaultInjector(bed.env,
                      failing_plan(at=0.02, duration=2.0)).inject(
            bed.migrator)
        retrier = MigrationRetrier(bed.migrator, RetryPolicy(
            max_attempts=5, initial_backoff=1.0, backoff_factor=10.0,
            max_backoff=2.0))
        proc = retrier.migrate_process(bed.domain, bed.destination)
        report = bed.env.run(until=proc)
        assert report.attempts == 3
        assert report.backoff_time == pytest.approx(3.0)
        assert report.consistency_verified


class TestZeroCost:
    """With no plan (or no injector), the fault layer must not change a
    single reported number — acceptance criterion of the PR."""

    @staticmethod
    def run_once(bed, with_injector):
        bed.random_writer(region=(0, 400), interval=0.004, seed=5)
        if with_injector:
            FaultInjector(bed.env, FaultPlan()).inject(bed.migrator)
        return bed.migrate()

    def test_empty_plan_is_byte_identical(self, make_bed):
        plain = self.run_once(make_bed(), with_injector=False)
        faulted = self.run_once(make_bed(), with_injector=True)
        assert plain.migrated_bytes == faulted.migrated_bytes
        assert plain.bytes_by_category == faulted.bytes_by_category
        assert plain.total_migration_time == faulted.total_migration_time
        assert plain.downtime == faulted.downtime
        assert ([i.bytes_sent for i in plain.disk_iterations]
                == [i.bytes_sent for i in faulted.disk_iterations])
        assert ([i.ended_at for i in plain.disk_iterations]
                == [i.ended_at for i in faulted.disk_iterations])
        assert plain.remaining_dirty_blocks == faulted.remaining_dirty_blocks
        assert plain.postcopy.pushed_blocks == faulted.postcopy.pushed_blocks
        assert plain.postcopy.ended_at == faulted.postcopy.ended_at
