"""Unit tests for the iterative disk pre-copier."""

import numpy as np
import pytest

from repro.core import DiskPreCopier, MigrationConfig, TRACKING_NAME
from repro.core.metrics import PROACTIVE_STOP_FRACTION, IterationStats
from repro.core.transfer import BlockStreamer


def make_precopier(bed, config=None, initial=None):
    fwd, _ = bed.channels("precopy")
    cfg = config if config is not None else bed.config
    driver = bed.source.driver_of(bed.domain.domain_id)
    dest_vbd = bed.destination.prepare_vbd(bed.vbd.nblocks)
    streamer = BlockStreamer(bed.env, bed.source.disk, bed.vbd,
                             bed.destination.disk, dest_vbd, fwd, cfg)
    return DiskPreCopier(bed.env, bed.source, driver, streamer, cfg,
                         initial_indices=initial), dest_vbd, driver


class TestQuietDisk:
    def test_single_iteration_when_no_writes(self, bed):
        precopier, dest_vbd, driver = make_precopier(bed)

        def proc(env):
            return (yield from precopier.run())

        iterations = bed.env.run(until=bed.env.process(proc(bed.env)))
        assert len(iterations) == 1
        assert iterations[0].units_sent == bed.vbd.nblocks
        assert iterations[0].dirty_at_end == 0
        assert dest_vbd.identical_to(bed.vbd)

    def test_tracking_left_registered(self, bed):
        precopier, _, driver = make_precopier(bed)

        def proc(env):
            return (yield from precopier.run())

        bed.env.run(until=bed.env.process(proc(bed.env)))
        # The precopy bitmap must keep tracking for the freeze phase.
        assert driver.tracking_bitmap(TRACKING_NAME) is not None


class TestDirtyDisk:
    def test_iterates_until_dirty_set_small(self, bed):
        bed.random_writer(region=(0, 200), interval=0.002)
        precopier, dest_vbd, driver = make_precopier(bed)

        def proc(env):
            return (yield from precopier.run())

        iterations = bed.env.run(until=bed.env.process(proc(bed.env)))
        assert len(iterations) >= 2
        assert iterations[0].units_sent == bed.vbd.nblocks
        # Later iterations shrink toward the threshold.
        assert iterations[-1].dirty_at_end <= max(
            bed.config.disk_dirty_threshold_blocks,
            iterations[-1].units_sent)

    def test_iteration_cap_respected(self, bed):
        bed.random_writer(region=(0, 1500), interval=0.0005, nblocks=8)
        cfg = bed.config.replace(max_disk_iterations=3,
                                 disk_dirty_threshold_blocks=1)
        precopier, _, _ = make_precopier(bed, config=cfg)

        def proc(env):
            return (yield from precopier.run())

        iterations = bed.env.run(until=bed.env.process(proc(bed.env)))
        assert len(iterations) <= 3

    def test_proactive_stop_when_dirty_rate_too_high(self, bed):
        # A writer dirtying far faster than the link can drain.
        bed.random_writer(region=(0, 1900), interval=0.0002, nblocks=16)
        cfg = bed.config.replace(max_disk_iterations=10,
                                 disk_dirty_threshold_blocks=1)
        precopier, _, _ = make_precopier(bed, config=cfg)

        def proc(env):
            return (yield from precopier.run())

        iterations = bed.env.run(until=bed.env.process(proc(bed.env)))
        assert len(iterations) < 10  # stopped proactively, not by the cap
        assert iterations[-1].outruns_transfer
        assert not any(it.outruns_transfer for it in iterations[:-1])

    def test_proactive_stop_fraction_is_nine_tenths(self):
        """The stop fires once the dirty rate passes 0.9 of the transfer
        rate, short of the rates being equal."""
        assert PROACTIVE_STOP_FRACTION == 0.9

        def record(dirtied, duration=1.0):
            return IterationStats(index=2, units_sent=100, bytes_sent=0,
                                  started_at=0.0, ended_at=duration,
                                  dirty_at_end=dirtied)

        assert not record(90).outruns_transfer
        assert record(91).outruns_transfer
        assert not record(500, duration=0.0).outruns_transfer  # instantaneous


class TestIncrementalFirstIteration:
    def test_initial_indices_bound_first_pass(self, bed):
        initial = np.array([3, 7, 11], dtype=np.int64)
        precopier, dest_vbd, _ = make_precopier(bed, initial=initial)

        def proc(env):
            return (yield from precopier.run())

        iterations = bed.env.run(until=bed.env.process(proc(bed.env)))
        assert iterations[0].units_sent == 3
        # Only those blocks were copied.
        assert dest_vbd.lagging_blocks(bed.vbd).size == bed.vbd.nblocks - 3

    def test_empty_initial_set(self, bed):
        precopier, _, _ = make_precopier(
            bed, initial=np.empty(0, dtype=np.int64))

        def proc(env):
            return (yield from precopier.run())

        iterations = bed.env.run(until=bed.env.process(proc(bed.env)))
        assert iterations[0].units_sent == 0


class TestSourceCrashAtIterationEnd:
    """A source crash after the last send of an iteration but before the
    destination writes its last chunk: the channel's crash check has
    passed, the crash dropped the tracking bitmap, and the iteration ends
    above the dirty threshold.  The attempt must fail as MigrationFailed
    naming the crash, not escape the run as a StorageError from the
    bitmap swap."""

    @staticmethod
    def crash_on_last_chunk(bed, monkeypatch, restart):
        from repro.core import tpm

        last = bed.vbd.nblocks - 1
        crashed = []

        def hook(indices):
            if not crashed and int(indices[-1]) == last:
                crashed.append(bed.env.now)
                bed.source.crash()
                if restart:
                    bed.source.restart()

        def streamer(*args, **kwargs):
            made = BlockStreamer(*args, **kwargs)
            made.chunk_written = hook
            return made

        monkeypatch.setattr(tpm, "BlockStreamer", streamer)
        return crashed

    @pytest.mark.parametrize("restart", [False, True],
                             ids=["permanent", "restarted"])
    def test_attempt_fails_as_migration_failed(self, bed, monkeypatch,
                                               restart):
        from repro.errors import MigrationFailed

        crashed = self.crash_on_last_chunk(bed, monkeypatch, restart)
        bed.random_writer(region=(0, 500), interval=0.002, seed=3)
        proc = bed.migrator.migrate_process(bed.domain, bed.destination)
        with pytest.raises(MigrationFailed,
                           match="source 'source' crashed during disk "
                                 "pre-copy iteration 1") as failed:
            bed.env.run(until=proc)
        assert len(crashed) == 1
        report = failed.value.report
        assert report.extra["failed_phase"] == "precopy-disk"
        assert len(report.disk_iterations) == 0  # never returned
        assert bed.domain.host is bed.source
        assert bed.source.crashed is not restart
        assert bed.domain.running is restart
