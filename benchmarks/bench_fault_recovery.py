"""Fault recovery — bitmap-based incremental retry vs restart-from-scratch.

The paper motivates Incremental Migration (§V) as cheap recovery: "if the
migration fails, the user can resume the virtual machine on the source
machine and retry later".  This benchmark quantifies that story.  A link
blackout is injected at a fraction of the way through the disk pre-copy;
the migration dies, the source keeps its write-tracking bitmap, and the
retry either

* **bitmap retry** — resumes incrementally, transferring only the blocks
  dirtied or never confirmed before the failure, or
* **scratch retry** — discards the recovery state and re-sends the whole
  device (what a bitmap-less implementation must do), or
* **delta baseline** — the Bradford-style delta-queue migration, which has
  no partial-copy bookkeeping at all: every byte of the failed attempt is
  wasted and the retry pays the full clean cost again.

All runs are seeded and deterministic; the gap is reported per
failure-injection time.
"""

import numpy as np
import pytest

from conftest import dump_trace, emit, observing, run_once
from repro.analysis import format_table
from repro.baselines import DeltaQueueMigration
from repro.core import (MigrationConfig, MigrationRetrier, Migrator,
                        RetryPolicy)
from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan
from repro.net import Channel
from repro.sim import Environment
from repro.storage import GenerationClock, PhysicalDisk
from repro.units import Gbps, MiB
from repro.vm import Domain, GuestMemory, Host

SEND_TIMEOUT = 0.25
BLACKOUT = 1.0
BACKOFF = 1.0
FRACTIONS = (0.25, 0.5, 0.75)


class FaultBed:
    """Two machines, one domain, a seeded writer — fresh env per run."""

    def __init__(self, scale, seed=42):
        self.env = env = Environment()
        if observing():
            from repro.obs import install

            install(env)
        self.clock = GenerationClock()
        self.nblocks = max(20_000, int(200_000 * scale))
        self.npages = 8_192
        self.config = MigrationConfig(
            chunk_blocks=256, disk_dirty_threshold_blocks=64,
            mem_dirty_threshold_pages=64, mem_chunk_pages=512)
        self.source = Host(env, "source",
                           PhysicalDisk(env, 200 * MiB, 200 * MiB, 0.2e-3),
                           self.clock)
        self.destination = Host(
            env, "destination",
            PhysicalDisk(env, 200 * MiB, 200 * MiB, 0.2e-3), self.clock)
        self.vbd = self.source.prepare_vbd(self.nblocks)
        self.vbd.write(0, self.nblocks)
        self.domain = Domain(env, GuestMemory(self.npages, clock=self.clock),
                             name="vm")
        self.source.attach_domain(self.domain, self.vbd)
        self.migrator = Migrator(env, self.config)
        self.migrator.connect(self.source, self.destination,
                              bandwidth=1 * Gbps, latency=100e-6)
        self._start_writer(seed)

    def _start_writer(self, seed):
        rng = np.random.default_rng(seed)
        domain = self.domain
        region = self.nblocks // 4

        def proc(env):
            while True:
                yield from domain.ensure_running()
                block = int(rng.integers(0, region))
                yield from domain.write(block, 4)
                # A host crash may have suspended the domain mid-write;
                # never dirty memory while frozen.
                yield from domain.ensure_running()
                domain.touch_memory(rng.integers(0, domain.memory.npages,
                                                 size=8))
                yield env.timeout(0.002)

        self.env.process(proc(self.env), name="writer")


def disk_precopy_window(scale):
    """Disk pre-copy [start, end) of an identical fault-free migration."""
    bed = FaultBed(scale)
    proc = bed.migrator.migrate_process(bed.domain, bed.destination)
    report = bed.env.run(until=proc)
    assert report.consistency_verified
    return (report.precopy_disk_started_at, report.precopy_disk_ended_at,
            report)


def disk_bytes_all_attempts(report):
    attempts = list(report.failed_attempts) + [report]
    return sum(r.bytes_by_category.get("disk", 0) for r in attempts)


def run_tpm_with_fault(scale, fail_at, incremental):
    bed = FaultBed(scale)
    plan = FaultPlan(send_timeout=SEND_TIMEOUT).blackout(duration=BLACKOUT,
                                                         at=fail_at)
    FaultInjector(bed.env, plan).inject(bed.migrator)
    retrier = MigrationRetrier(bed.migrator, RetryPolicy(
        max_attempts=3, initial_backoff=BACKOFF, incremental=incremental))
    proc = retrier.migrate_process(bed.domain, bed.destination)
    report = bed.env.run(until=proc)
    dump_trace(bed.env,
               f"fault_retry_{'bitmap' if incremental else 'scratch'}"
               f"_at{fail_at:.2f}")
    return report


def run_delta(scale, fail_at=None):
    """One delta-queue migration; returns (ok, forward-link wire bytes)."""
    bed = FaultBed(scale)
    if fail_at is not None:
        plan = FaultPlan(send_timeout=SEND_TIMEOUT).blackout(
            duration=BLACKOUT, at=fail_at)
        FaultInjector(bed.env, plan).inject(bed.migrator)
    fwd_link, rev_link = bed.migrator.link_between(bed.source,
                                                   bed.destination)
    fwd = Channel(bed.env, fwd_link, name="delta:fwd")
    rev = Channel(bed.env, rev_link, name="delta:rev")
    migration = DeltaQueueMigration(bed.env, bed.domain, bed.source,
                                    bed.destination, fwd, rev, bed.config)
    proc = bed.env.process(migration.run(), name="delta")
    try:
        bed.env.run(until=proc)
        return True, fwd_link.bytes_sent
    except ReproError:
        # The delta scheme has no recovery machinery: the attempt is dead
        # and every byte it moved is wasted.
        return False, fwd_link.bytes_sent


def test_fault_recovery_sweep(benchmark, scale):
    def sweep():
        t0, t1, baseline = disk_precopy_window(scale)
        _, clean_delta_bytes = run_delta(scale)
        out = []
        for frac in FRACTIONS:
            fail_at = t0 + frac * (t1 - t0)
            inc = run_tpm_with_fault(scale, fail_at, incremental=True)
            scratch = run_tpm_with_fault(scale, fail_at, incremental=False)
            ok, wasted = run_delta(scale, fail_at=fail_at)
            assert not ok  # the fault kills the recovery-free baseline
            out.append((frac, inc, scratch, wasted))
        return baseline, clean_delta_bytes, out

    baseline, clean_delta_bytes, results = run_once(benchmark, sweep)

    rows = []
    gaps = []
    for frac, inc, scratch, wasted in results:
        inc_disk = disk_bytes_all_attempts(inc)
        scratch_disk = disk_bytes_all_attempts(scratch)
        delta_total = wasted + clean_delta_bytes
        gap = scratch_disk - inc_disk
        gaps.append(gap)
        rows.append([f"{frac:.0%}", inc_disk / 2**20, scratch_disk / 2**20,
                     delta_total / 2**20, gap / 2**20])

        # Acceptance criterion: the bitmap retry moves strictly fewer
        # disk bytes than restarting from scratch, at every fail time.
        assert inc.attempts == 2 and scratch.attempts == 2
        assert inc.consistency_verified and scratch.consistency_verified
        assert inc_disk < scratch_disk
        # And both beat the bookkeeping-free delta baseline's restart.
        assert scratch_disk <= delta_total

    # The later the failure, the more confirmed blocks the bitmap saves.
    assert gaps[-1] > gaps[0]

    emit(benchmark, "Fault recovery",
         format_table(
             ["fail point", "bitmap retry (MiB)", "scratch retry (MiB)",
              "delta restart (MiB)", "bitmap saves (MiB)"], rows,
             title=(f"Disk bytes over all attempts, blackout at a fraction "
                    f"of disk pre-copy (scale={scale})")),
         baseline_disk_mb=baseline.bytes_by_category["disk"] / 2**20,
         gap_mb=[g / 2**20 for g in gaps])


def run_rack_evacuation(scale, retry):
    """Drain rack0 into rack1 while a partition isolates rack1.

    All three rack0 hosts enter maintenance, so every evacuation job is
    forced across the fabric — straight into a partition that heals at
    t=1.0.  With recovery off the jobs hitting the cut are dead; with a
    RetryPolicy they back off, optionally re-place, and finish on the
    preserved bitmap once the cut heals.
    """
    from repro.cluster import build_cluster, check_invariants

    policy = (RetryPolicy(max_attempts=5, initial_backoff=0.4,
                          max_backoff=2.0) if retry else None)
    bed = build_cluster(nhosts=6, vms_per_host=2, wiring="rack",
                        rack_size=3, nblocks=max(256, int(4096 * scale)),
                        npages=64, retry=policy, health=retry)
    expected_ids = {domain.domain_id for domain in bed.domains}
    plan = (FaultPlan(send_timeout=SEND_TIMEOUT)
            .partition(["rack1"], duration=1.0, at=0.0))
    injector = FaultInjector(bed.env, plan).inject(bed.migrator)
    if bed.scheduler.health is not None:
        bed.scheduler.health.attach(injector)
    jobs = []
    for host in bed.hosts[:3]:  # rack0
        host.enter_maintenance()
    for host in bed.hosts[:3]:
        jobs.append(bed.scheduler.evacuate(host))
    jobs = [job for group in jobs for job in group]
    bed.scheduler.drain(jobs)
    violations = check_invariants(bed, expected_ids)
    assert violations == [], violations
    return bed, jobs


def test_cluster_evacuation_under_partition(benchmark, scale):
    """Cluster-level recovery: a rack drain interrupted by a partition
    loses every crossing job without a RetryPolicy and none with one."""

    def run_pair():
        return run_rack_evacuation(scale, retry=False), \
               run_rack_evacuation(scale, retry=True)

    (bed_off, jobs_off), (bed_on, jobs_on) = run_once(benchmark, run_pair)

    ok_off = sum(1 for job in jobs_off if job.succeeded)
    ok_on = sum(1 for job in jobs_on if job.succeeded)
    attempts_on = sum(max(job.attempts, 1) for job in jobs_on)

    # Acceptance criteria: the partition kills work without recovery,
    # and the retry path saves every job via bitmap-incremental
    # reattempts (so attempts > jobs).
    assert len(bed_off.scheduler.dead_letter) >= 1
    assert ok_on == len(jobs_on)
    assert not bed_on.scheduler.dead_letter
    assert ok_on > ok_off
    assert attempts_on > len(jobs_on)
    # Every surviving rack0 host is empty on the retry path.
    assert all(not host.domains for host in bed_on.hosts[:3])

    rows = [
        ["retry off", ok_off, len(bed_off.scheduler.dead_letter),
         sum(max(job.attempts, 1) for job in jobs_off),
         bed_off.scheduler.makespan(jobs_off)],
        ["retry on", ok_on, len(bed_on.scheduler.dead_letter),
         attempts_on, bed_on.scheduler.makespan(jobs_on)],
    ]
    emit(benchmark, "Evacuation under partition",
         format_table(
             ["policy", "jobs ok", "dead-lettered", "attempts",
              "makespan (s)"], rows,
             title=(f"Rack drain through a 1s partition of rack1 "
                    f"(6 jobs, scale={scale})")),
         ok_with_retry=ok_on, ok_without_retry=ok_off,
         dead_lettered_without_retry=len(bed_off.scheduler.dead_letter))


def test_fault_free_run_matches_baseline(benchmark, scale):
    """Zero-cost criterion: attaching an injector with an empty plan
    changes not a single reported number."""

    def run_pair():
        plain_bed = FaultBed(scale)
        proc = plain_bed.migrator.migrate_process(plain_bed.domain,
                                                  plain_bed.destination)
        plain = plain_bed.env.run(until=proc)

        faulted_bed = FaultBed(scale)
        FaultInjector(faulted_bed.env, FaultPlan()).inject(
            faulted_bed.migrator)
        proc = faulted_bed.migrator.migrate_process(faulted_bed.domain,
                                                    faulted_bed.destination)
        faulted = faulted_bed.env.run(until=proc)
        return plain, faulted

    plain, faulted = run_once(benchmark, run_pair)
    assert plain.bytes_by_category == faulted.bytes_by_category
    assert plain.total_migration_time == faulted.total_migration_time
    assert plain.downtime == faulted.downtime
    emit(benchmark, "Zero-cost check",
         f"fault layer idle: {plain.migrated_bytes} B == "
         f"{faulted.migrated_bytes} B, "
         f"t={plain.total_migration_time:.3f}s identical",
         migrated_bytes=plain.migrated_bytes)
