"""Unit tests for the Migrator façade and Incremental Migration logic."""

import numpy as np
import pytest

from repro.core import IM_TRACKING_NAME, SCHEMES, Migrator
from repro.errors import MigrationError
from repro.sim import Environment
from repro.storage import PhysicalDisk
from repro.units import MiB
from repro.vm import Host


class TestTopology:
    def test_link_lookup_both_directions(self, bed):
        fwd, rev = bed.migrator.link_between(bed.source, bed.destination)
        fwd2, rev2 = bed.migrator.link_between(bed.destination, bed.source)
        assert fwd is rev2 and rev is fwd2

    def test_missing_link_rejected(self, bed):
        stranger = Host(bed.env, "stranger")
        with pytest.raises(MigrationError):
            bed.migrator.link_between(bed.source, stranger)

    def test_migrate_to_same_host_rejected(self, bed):
        def proc(env):
            yield from bed.migrator.migrate(bed.domain, bed.source)

        with pytest.raises(MigrationError):
            bed.env.run(until=bed.env.process(proc(bed.env)))

    def test_detached_domain_rejected(self, bed):
        bed.source.detach_domain(bed.domain.domain_id)

        def proc(env):
            yield from bed.migrator.migrate(bed.domain, bed.destination)

        with pytest.raises(MigrationError):
            bed.env.run(until=bed.env.process(proc(bed.env)))


class TestIncrementalMigration:
    def test_back_migration_is_incremental(self, bed):
        bed.random_writer(region=(0, 300), interval=0.005)
        primary = bed.migrate()
        assert not primary.incremental
        bed.env.run(until=bed.env.now + 2.0)
        back = bed.migrate()
        assert back.incremental
        assert back.consistency_verified

    def test_im_moves_far_less_data(self, bed):
        bed.random_writer(region=(0, 300), interval=0.005)
        primary = bed.migrate()
        bed.env.run(until=bed.env.now + 2.0)
        back = bed.migrate()
        assert back.migrated_bytes < 0.5 * primary.migrated_bytes
        assert back.disk_iterations[0].units_sent < bed.vbd.nblocks

    def test_im_is_faster(self, bed):
        bed.random_writer(region=(0, 300), interval=0.005)
        primary = bed.migrate()
        bed.env.run(until=bed.env.now + 2.0)
        back = bed.migrate()
        assert (back.total_migration_time
                < 0.8 * primary.total_migration_time)

    def test_repeated_round_trips_stay_incremental(self, bed):
        bed.random_writer(region=(0, 300), interval=0.005)
        bed.migrate()
        for _ in range(3):
            bed.env.run(until=bed.env.now + 1.0)
            report = bed.migrate()
            assert report.incremental
            assert report.consistency_verified

    def test_quiet_im_transfers_almost_nothing(self, bed):
        primary = bed.migrate()
        bed.env.run(until=bed.env.now + 1.0)  # no writes at all
        back = bed.migrate()
        assert back.incremental
        assert back.disk_iterations[0].units_sent == 0
        # Only memory + protocol crossed the wire.
        assert back.bytes_by_category.get("disk", 0) == 0

    @pytest.mark.parametrize("crash", [False, True])
    def test_lost_divergence_bitmap_is_a_stated_full_copy(self, bed, crash):
        """A crash of the VM's host drops BM_3: the back migration then
        copies the whole device and says why, instead of silently."""
        bed.migrate()

        def writer(env):
            for block in range(21):
                yield from bed.domain.write(block, 1)

        bed.env.run(until=bed.env.process(writer(bed.env)))
        if crash:
            bed.destination.crash()
            bed.destination.restart()
        back = bed.migrate()
        assert back.consistency_verified
        assert back.incremental is not crash
        sent = back.disk_iterations[0].units_sent
        assert sent == (bed.vbd.nblocks if crash else 21)
        assert ("divergence bitmap" in back.extra.get("im_fallback", "")
                ) is crash

    def test_stale_copy_bookkeeping(self, bed):
        assert not bed.migrator.has_stale_copy(bed.domain, bed.source)
        bed.migrate()
        assert bed.migrator.has_stale_copy(bed.domain, bed.source)
        assert not bed.migrator.has_stale_copy(bed.domain, bed.destination)

    def test_third_host_forces_full_migration(self, bed):
        third = Host(bed.env, "third",
                     PhysicalDisk(bed.env, 100 * MiB, 100 * MiB, 0.1e-3),
                     bed.clock)
        bed.migrator.connect(bed.destination, third)
        bed.migrator.connect(third, bed.source)
        bed.migrate()  # source -> destination
        proc = bed.migrator.migrate_process(bed.domain, third)
        to_third = bed.env.run(until=proc)
        assert not to_third.incremental  # third never held a copy
        # ... and the original source's stale copy is now invalid:
        proc = bed.migrator.migrate_process(bed.domain, bed.source)
        back_home = bed.env.run(until=proc)
        assert not back_home.incremental

    def test_history_records_all_runs(self, bed):
        bed.migrate()
        bed.migrate()
        assert len(bed.migrator.history) == 2
        assert bed.migrator.history[1].incremental


class TestMultiHostIM:
    """The paper's future-work extension: IM among any recently used host."""

    def _ring(self, bed):
        third = Host(bed.env, "third",
                     PhysicalDisk(bed.env, 100 * MiB, 100 * MiB, 0.1e-3),
                     bed.clock)
        bed.migrator.multi_host_im = True
        bed.migrator.connect(bed.destination, third)
        bed.migrator.connect(third, bed.source)
        return third

    def _go(self, bed, destination):
        proc = bed.migrator.migrate_process(bed.domain, destination)
        return bed.env.run(until=proc)

    def test_return_after_two_hops_is_incremental(self, bed):
        third = self._ring(bed)
        bed.random_writer(region=(0, 300), interval=0.005)
        assert not self._go(bed, bed.destination).incremental  # A -> B
        bed.env.run(until=bed.env.now + 1.0)
        assert not self._go(bed, third).incremental            # B -> C
        bed.env.run(until=bed.env.now + 1.0)
        back = self._go(bed, bed.source)                       # C -> A
        assert back.incremental
        assert back.consistency_verified

    def test_all_stale_copies_usable_in_any_order(self, bed):
        third = self._ring(bed)
        bed.random_writer(region=(0, 300), interval=0.005)
        self._go(bed, bed.destination)      # A -> B
        self._go(bed, third)                # B -> C
        back_to_b = self._go(bed, bed.destination)  # C -> B
        assert back_to_b.incremental
        assert back_to_b.consistency_verified
        back_to_c = self._go(bed, third)    # B -> C again
        assert back_to_c.incremental
        assert back_to_c.consistency_verified

    def test_divergence_covers_all_hops(self, bed):
        """Blocks written on B and on C must both be in the A-return set."""
        third = self._ring(bed)
        self._go(bed, bed.destination)      # A -> B (quiet)

        def write_once(block):
            def proc(env):
                yield from bed.domain.write(block)
            bed.env.run(until=bed.env.process(proc(bed.env)))

        write_once(10)                      # written while on B
        self._go(bed, third)                # B -> C
        write_once(20)                      # written while on C
        back = self._go(bed, bed.source)    # C -> A, incremental
        assert back.incremental
        sent = back.disk_iterations[0].units_sent
        assert sent >= 2                    # both hop-writes included
        assert back.consistency_verified

    def test_stale_copy_dies_with_its_divergence_bitmap(self, bed):
        """A crash drops ``im:source``: the back migration is a full copy,
        and the Migrator no longer claims a stale copy on the host the
        domain now runs on."""
        self._ring(bed)
        self._go(bed, bed.destination)      # A -> B
        bed.destination.crash()
        bed.destination.restart()
        back = self._go(bed, bed.source)    # B -> A, stated full copy
        assert "divergence bitmap" in back.extra["im_fallback"]
        assert not bed.migrator.has_stale_copy(bed.domain, bed.source)
        assert bed.migrator.has_stale_copy(bed.domain, bed.destination)

    def test_disabled_by_default(self, bed):
        assert not bed.migrator.multi_host_im


class TestDivergenceLifetime:
    """A divergence bitmap ``im:<h>`` lives exactly as long as the stale
    copy on ``h`` it describes, whatever the schemes of a walk."""

    @pytest.mark.parametrize("multi", [False, True],
                             ids=["single-host", "multi-host"])
    @pytest.mark.parametrize("seed", range(8))
    def test_im_names_follow_stale_copies(self, bed, seed, multi):
        third = Host(bed.env, "third",
                     PhysicalDisk(bed.env, 100 * MiB, 100 * MiB, 0.1e-3),
                     bed.clock)
        bed.migrator.multi_host_im = multi
        bed.migrator.connect(bed.destination, third)
        bed.migrator.connect(third, bed.source)
        hosts = [bed.source, bed.destination, third]
        baselines = sorted(set(SCHEMES) - {"tpm"})
        bed.random_writer(region=(0, 300), interval=0.005)
        rng = np.random.default_rng(seed)
        for hop in range(int(rng.integers(4, 7))):
            others = [h for h in hosts if h is not bed.domain.host]
            destination = others[int(rng.integers(len(others)))]
            # TPM on most hops, so IM chains form between the baselines.
            scheme = ("tpm" if rng.random() < 0.6
                      else baselines[int(rng.integers(len(baselines)))])
            had_stale = bed.migrator.has_stale_copy(bed.domain, destination)
            proc = bed.migrator.migrate_process(bed.domain, destination,
                                                scheme=scheme)
            report = bed.env.run(until=proc)
            where = f"hop {hop}: {scheme} to {destination.name}"
            assert report.consistency_verified, where
            if scheme == "tpm":
                assert report.incremental == had_stale, where
            im_names = {name for name in bed.domain.driver.tracking_names()
                        if name.startswith(f"{IM_TRACKING_NAME}:")}
            stale = {f"{IM_TRACKING_NAME}:{h.name}" for h in hosts
                     if bed.migrator.has_stale_copy(bed.domain, h)}
            assert im_names == stale, where
            bed.env.run(until=bed.env.now + 0.2)
