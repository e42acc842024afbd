"""End-to-end crash recovery — the scenario the persistence layer exists
for: the *source host* dies mid-migration, restarts, recovers the
block-bitmap from its stable storage, and the retry completes
incrementally with fewer disk bytes than a from-scratch restart."""

import numpy as np
import pytest

from repro.core import TRACKING_NAME, MigrationRetrier, RetryPolicy
from repro.faults import FaultInjector, FaultPlan


class TestHostCrashLifecycle:
    def test_crash_and_restart_round_trip(self, bed):
        driver = bed.source.driver_of(bed.domain.domain_id)
        bed.source.crash()
        assert bed.source.crashed and driver.crashed
        assert not bed.domain.running
        bed.source.crash()                 # idempotent
        bed.source.restart()
        assert not bed.source.crashed and not driver.crashed
        assert bed.domain.running
        bed.source.restart()               # idempotent

    def test_crashed_driver_drops_writes_on_the_floor(self, bed):
        """No under-marking window: while the host is down, nothing may
        mutate disk or tracking state that recovery later trusts."""
        import numpy as np

        from repro.bitmap import FlatBitmap
        from repro.storage.block import IOKind, IORequest

        driver = bed.source.driver_of(bed.domain.domain_id)
        driver.start_tracking("t", FlatBitmap(bed.vbd.nblocks))
        before = bed.vbd.export_blocks(np.arange(4))[0].copy()
        bed.source.crash()                 # drops tracking, marks crashed
        driver.apply(IORequest(IOKind.WRITE, block=1, nblocks=2))
        assert not driver.has_tracking("t")
        after = bed.vbd.export_blocks(np.arange(4))[0]
        assert (before == after).all()     # the write never landed
        bed.source.restart()

    def test_stores_keyed_by_domain_and_name(self, bed):
        did = bed.domain.domain_id
        store = bed.source.bitmap_store(did)
        assert bed.source.bitmap_store(did, TRACKING_NAME) is store
        assert bed.source.bitmap_store(did, f"backup:{did}") is not store
        assert store.nbits == bed.vbd.nblocks
        assert not store.recoverable

    @pytest.mark.parametrize("backup", [False, True],
                             ids=["precopy", "both"])
    def test_restart_recovers_stores(self, bed, backup):
        """One rule: every recoverable store comes back under its own
        tracking name, each a superset of its pending set."""
        did = bed.domain.domain_id
        pending = {TRACKING_NAME: {4, 5}}
        if backup:
            pending[f"backup:{did}"] = {5, 9, 1999}
        for name, blocks in pending.items():
            bed.source.bitmap_store(did, name).open_session(
                np.asarray(sorted(blocks), dtype=np.int64))
        bed.source.crash()
        driver = bed.source.driver_of(did)
        assert not driver.is_tracking
        assert all(bed.source.bitmap_store(did, name).recoverable
                   for name in pending)
        bed.source.restart()
        assert driver.tracking_names() == sorted(pending)
        for name, blocks in pending.items():
            survivor = driver.tracking_bitmap(name)
            assert survivor.recovered
            assert survivor.store is bed.source.bitmap_store(did, name)
            assert blocks <= set(survivor.dirty_indices().tolist())

    def test_wait_until_up_blocks_until_restart(self, bed):
        bed.source.crash()
        seen = []

        def waiter(env):
            yield from bed.source.wait_until_up()
            seen.append(env.now)

        def restarter(env):
            yield env.timeout(1.5)
            bed.source.restart()

        bed.env.process(waiter(bed.env))
        bed.env.process(restarter(bed.env))
        bed.env.run()
        assert seen == [1.5]


class TestCrashRecoveryMigration:
    """The ISSUE's acceptance scenario, asserted end to end."""

    @staticmethod
    def run_crashy_migration(bed, persist):
        cfg = bed.config.replace(persist_bitmap=persist)
        bed.random_writer(region=(0, 300), interval=0.005, seed=11)
        plan = FaultPlan(send_timeout=0.05).crash("source", at=0.02,
                                                  down_for=0.5)
        FaultInjector(bed.env, plan).inject(bed.migrator)
        retrier = MigrationRetrier(bed.migrator, RetryPolicy(
            max_attempts=3, initial_backoff=0.3, incremental=True,
            wait_for_restart=True))
        proc = retrier.migrate_process(bed.domain, bed.destination, cfg)
        return bed.env.run(until=proc)

    @staticmethod
    def disk_bytes_all_attempts(report):
        attempts = list(report.failed_attempts) + [report]
        return sum(r.bytes_by_category.get("disk", 0) for r in attempts)

    def test_source_crash_recovers_bitmap_and_resumes(self, make_bed):
        bed = make_bed()
        report = self.run_crashy_migration(bed, persist=True)
        assert report.attempts == 2
        assert report.consistency_verified
        assert bed.domain.host is bed.destination
        # The failed attempt flagged its recovery state as persisted...
        failed = report.failed_attempts[0]
        assert failed.extra.get("persisted_bitmap_recoverable") is True
        # ...and the retry really did resume from the recovered bitmap.
        assert report.extra.get("recovered_from_persistence") is True

    def test_persisted_retry_beats_scratch_on_disk_bytes(self, make_bed):
        """Acceptance criterion: after a full source crash, the persisted
        bitmap still yields an incremental retry; without persistence the
        crash destroys the tracking state and the retry re-sends the
        whole device."""
        persisted = self.run_crashy_migration(make_bed(), persist=True)
        scratch = self.run_crashy_migration(make_bed(), persist=False)
        assert persisted.attempts == scratch.attempts == 2
        assert scratch.consistency_verified
        assert not scratch.extra.get("recovered_from_persistence")
        assert (self.disk_bytes_all_attempts(persisted)
                < self.disk_bytes_all_attempts(scratch))

    def test_clean_migration_completes_the_store(self, make_bed):
        """No crash: the store is marked clean at commit, so a later crash
        has nothing (stale) to recover."""
        bed = make_bed()
        cfg = bed.config.replace(persist_bitmap=True)
        report = bed.migrate(cfg)
        assert report.consistency_verified
        assert not report.extra.get("recovered_from_persistence")
        assert not bed.source.bitmap_store(bed.domain.domain_id).recoverable

    def test_persistence_does_not_change_migration_numbers(self, make_bed):
        """Zero-simulated-cost criterion: persist_bitmap=True must not
        perturb a fault-free migration's reported numbers at all."""
        reports = {}
        for persist in (False, True):
            bed = make_bed()
            bed.random_writer(region=(0, 400), interval=0.004, seed=5)
            reports[persist] = bed.migrate(
                bed.config.replace(persist_bitmap=persist))
        plain, persisted = reports[False], reports[True]
        assert plain.migrated_bytes == persisted.migrated_bytes
        assert plain.bytes_by_category == persisted.bytes_by_category
        assert plain.total_migration_time == persisted.total_migration_time
        assert plain.downtime == persisted.downtime
        assert (plain.remaining_dirty_blocks
                == persisted.remaining_dirty_blocks)
