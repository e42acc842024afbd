"""Seeded chaos harness: randomized fault schedules, checked invariants.

The recovery stack (partitions, flaps, crashes, breakers, retries,
dead-lettering) has too many interleavings to enumerate by hand.  This
module generates *randomized but reproducible* chaos runs: a seed drives
``numpy.random.default_rng`` through fault-schedule and job-mix
generation, the cluster runs to quiescence, and :func:`check_invariants`
asserts the properties that must survive **any** schedule:

1. **conservation** — per-link byte accounting balances (channel ledgers
   + aborted in-flight sends == wire counters on every link);
2. **placement** — every domain ends attached to exactly one host, no
   job is left in flight, and every terminally failed job is in its
   scheduler's dead-letter list;
3. **bitmaps** — for every surviving partial copy, the source's
   preserved tracking bitmap covers every block that still differs
   (recovered ⊇ true-pending: an incremental retry would miss nothing);
4. **surrogates** — no domain is left stranded on a sharded cluster's
   surrogate stand-in hosts;
5. **attempts** — every job's ``attempts`` equals its failure records
   plus one for a success, and every dead-lettered job has a
   :class:`~repro.cluster.scheduler.JobFailure`;
6. **consistency** — every finished job's report is
   ``consistency_verified``; no job ended on a ``ConsistencyError``.

Both the monolithic (``build_cluster(wiring="rack")``) and sharded
(``build_sharded_cluster``) stacks run the same schedule shape, so the
harness doubles as a differential test of the two engines' failure
semantics.  ``tools/check_chaos.py`` and ``repro-sim chaos`` are the
entry points; on violation they print the seed so any failure replays
exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..core.manager import RetryPolicy
from ..core.precopy import TRACKING_NAME
from ..errors import ConsistencyError, MigrationError, ReproError
from ..faults import FaultPlan
from .accounting import audit_link_bytes
from .scheduler import MigrationJob

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sharded import ShardedCluster
    from .testbed import ClusterBed

#: Modes the harness can run; "sharded" uses one simulation per rack.
MODES = ("monolithic", "sharded")
#: Every chaos plan's send timeout: a blacked-out send fails after this.
SEND_TIMEOUT = 0.25


@dataclass
class ChaosConfig:
    """One chaos run's knobs (everything derives from ``seed``)."""

    seed: int = 0
    mode: str = "monolithic"
    nracks: int = 2
    hosts_per_rack: int = 3
    vms_per_host: int = 2
    nblocks: int = 2048
    npages: int = 64
    #: Migrations submitted (random domain -> random other host).
    njobs: int = 6
    npartitions: int = 1
    nflaps: int = 1
    ncrashes: int = 1
    #: Fault activation times are drawn uniformly from [0, horizon);
    #: keep it inside the job wave or the faults hit an idle cluster.
    horizon: float = 1.2
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(
        max_attempts=3, initial_backoff=0.2, max_backoff=2.0))
    health: bool = True

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ReproError(
                f"unknown chaos mode {self.mode!r} (expected {MODES})")
        if self.njobs < 1:
            raise ReproError(f"njobs must be >= 1, got {self.njobs}")
        if self.horizon <= 0:
            raise ReproError(f"horizon must be positive, got {self.horizon}")


@dataclass
class ChaosReport:
    """Outcome of one seeded run."""

    config: ChaosConfig
    jobs: list[MigrationJob]
    #: Human-readable invariant violations; empty means the run is green.
    violations: list[str]
    succeeded: int = 0
    failed: int = 0
    dead_lettered: int = 0
    faults: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        head = (f"chaos seed={self.config.seed} mode={self.config.mode}: "
                f"{self.succeeded}/{len(self.jobs)} jobs ok, "
                f"{self.failed} failed ({self.dead_lettered} dead-lettered), "
                f"{self.faults} faults")
        if self.ok:
            return head + " -- all invariants hold"
        lines = [head + f" -- {len(self.violations)} VIOLATION(S):"]
        lines += [f"  {v}" for v in self.violations]
        return "\n".join(lines)


def random_plan(config: ChaosConfig, rng: np.random.Generator) -> FaultPlan:
    """A fault schedule drawn from ``rng`` over the run's topology names.

    Partitions isolate whole racks, flaps hit rack uplinks, crashes hit
    hosts (half of them transient, with a restart).  All times land in
    ``[0, horizon)`` so faults overlap the job wave.
    """
    plan = FaultPlan(send_timeout=SEND_TIMEOUT)
    racks = [f"rack{r}" for r in range(config.nracks)]
    nhosts = config.nracks * config.hosts_per_rack
    hosts = [f"host{i:02d}" for i in range(nhosts)]
    for _ in range(config.npartitions):
        plan.partition([racks[int(rng.integers(len(racks)))]],
                       duration=float(rng.uniform(0.5, 2.0)),
                       at=float(rng.uniform(0.0, config.horizon)))
    for _ in range(config.nflaps):
        rack = racks[int(rng.integers(len(racks)))]
        plan.flap(down_time=float(rng.uniform(0.3, 0.8)),
                  up_time=float(rng.uniform(0.2, 0.6)),
                  count=int(rng.integers(1, 4)),
                  link=(rack, "core"),
                  at=float(rng.uniform(0.0, config.horizon)))
    for _ in range(config.ncrashes):
        host = hosts[int(rng.integers(len(hosts)))]
        down_for = (float(rng.uniform(0.5, 2.0))
                    if rng.random() < 0.5 else None)
        plan.crash(host, at=float(rng.uniform(0.0, config.horizon)),
                   down_for=down_for)
    return plan


def _random_jobs(config: ChaosConfig, rng: np.random.Generator,
                 domains, host_names: list[str]) -> list[tuple]:
    """``(domain, destination_name)`` picks; a domain moves at most once
    per run (queueing the same VM twice is a scheduler test, not a chaos
    one)."""
    picks = []
    pool = list(domains)
    for _ in range(min(config.njobs, len(pool))):
        domain = pool.pop(int(rng.integers(len(pool))))
        candidates = [name for name in host_names
                      if domain.host is not None
                      and name != domain.host.name]
        picks.append((domain, candidates[int(rng.integers(len(candidates)))]))
    return picks


# -- invariants -------------------------------------------------------------


def _check_conservation(audits) -> list[str]:
    return [f"conservation: {audit!r}" for audit in audits
            if not audit.conserved]


def _check_placement(hosts, schedulers, expected_ids: set[int]
                     ) -> list[str]:
    violations: list[str] = []
    seen: dict[int, list[str]] = {}
    for host in hosts:
        for domain in host.domains:
            seen.setdefault(domain.domain_id, []).append(host.name)
    for domain_id in sorted(expected_ids):
        where = seen.get(domain_id, [])
        if len(where) != 1:
            violations.append(
                f"placement: domain {domain_id} attached to "
                f"{len(where)} hosts {where} (expected exactly 1)")
    for scheduler in schedulers:
        dead = {id(job) for job in scheduler.dead_letter}
        for job in scheduler.jobs:
            if job.status in ("pending", "running"):
                violations.append(
                    f"placement: job for {job.domain.name} still "
                    f"{job.status} after drain")
            elif job.status == "failed" and id(job) not in dead:
                violations.append(
                    f"placement: failed job for {job.domain.name} missing "
                    f"from the dead-letter list")
    return violations


def _check_attempts(schedulers) -> list[str]:
    """Every attempt is accounted for: a failed attempt leaves one
    record, a successful one none, and no job dead-letters silently."""
    violations: list[str] = []
    for scheduler in schedulers:
        for job in scheduler.jobs:
            expected = len(job.failures) + (1 if job.succeeded else 0)
            if job.attempts != expected:
                violations.append(
                    f"attempts: job for {job.domain.name} made "
                    f"{job.attempts} attempt(s) but has "
                    f"{len(job.failures)} failure record(s) "
                    f"(status {job.status})")
        for job in scheduler.dead_letter:
            if job.failure is None:
                violations.append(
                    f"attempts: dead-lettered job for {job.domain.name} "
                    f"has no failure record")
    return violations


def _check_consistency(schedulers) -> list[str]:
    violations: list[str] = []
    for scheduler in schedulers:
        for job in scheduler.jobs:
            if job.status == "done" and not job.report.consistency_verified:
                violations.append(f"consistency: {job.domain.name} "
                                  f"finished unverified")
            if isinstance(job.error, ConsistencyError):
                violations.append(f"consistency: {job.domain.name} "
                                  f"ended on {job.error}")
    return violations


def _check_bitmaps(hosts, migrators) -> list[str]:
    """Recovered ⊇ true-pending for every surviving partial copy."""
    violations: list[str] = []
    by_id = {}
    for host in hosts:
        for domain in host.domains:
            by_id[domain.domain_id] = (host, domain)
    for migrator in migrators:
        for (domain_id, dest_name), partial in migrator._partial.items():
            entry = by_id.get(domain_id)
            if entry is None:
                continue  # placement invariant reports the stranding
            host, domain = entry
            try:
                src_vbd = host.vbd_of(domain_id)
                driver = host.driver_of(domain_id)
            except (MigrationError, ReproError, KeyError):
                continue
            if not driver.has_tracking(TRACKING_NAME):
                # Bitmap lost -> the retry path starts clean; the stale
                # partial is unusable but not unsafe.
                continue
            if src_vbd.nblocks != partial.nblocks:
                violations.append(
                    f"bitmaps: partial for domain {domain_id} at "
                    f"{dest_name} has {partial.nblocks} blocks, "
                    f"source has {src_vbd.nblocks}")
                continue
            pending = set(int(i) for i in partial.lagging_blocks(src_vbd))
            dirty = set(int(i) for i in
                        driver.tracking_bitmap(TRACKING_NAME)
                        .dirty_indices())
            missed = pending - dirty
            if missed:
                violations.append(
                    f"bitmaps: domain {domain_id} partial at {dest_name}: "
                    f"{len(missed)} pending blocks not in the tracking "
                    f"bitmap (e.g. {sorted(missed)[:5]}) -- an incremental "
                    f"retry would lose them")
    return violations


def check_invariants(target, expected_ids: set[int]) -> list[str]:
    """All six invariant families against a drained cluster.

    ``target`` is a :class:`~repro.cluster.testbed.ClusterBed` or a
    :class:`~repro.cluster.sharded.ShardedCluster`.
    """
    violations: list[str] = []
    if hasattr(target, "shards"):  # ShardedCluster
        hosts = target.hosts
        schedulers = [shard.scheduler for shard in target.shards]
        migrators = [shard.migrator for shard in target.shards]
        violations += _check_conservation(target.audits())
        stranded = target.surrogate_residents()
        if stranded:
            violations.append(
                "surrogates: domains stranded on surrogate hosts: "
                + ", ".join(d.name for d in stranded))
        if target._live_cross:
            violations.append(
                f"surrogates: {len(target._live_cross)} cross-rack "
                f"job(s) never released their engine source")
    else:  # ClusterBed
        hosts = target.hosts
        schedulers = [target.scheduler]
        migrators = [target.migrator]
        violations += _check_conservation(
            audit_link_bytes(target.migrator.migrations))
    violations += _check_placement(hosts, schedulers, expected_ids)
    violations += _check_attempts(schedulers)
    violations += _check_consistency(schedulers)
    violations += _check_bitmaps(hosts, migrators)
    return violations


# -- run --------------------------------------------------------------------


def _run_monolithic(config: ChaosConfig, rng: np.random.Generator
                    ) -> tuple["ClusterBed", list[MigrationJob], FaultPlan,
                               set[int]]:
    from ..faults import FaultInjector
    from .testbed import build_cluster

    bed = build_cluster(
        nhosts=config.nracks * config.hosts_per_rack,
        vms_per_host=config.vms_per_host, wiring="rack",
        rack_size=config.hosts_per_rack, nblocks=config.nblocks,
        npages=config.npages, retry=config.retry, health=config.health)
    expected_ids = {domain.domain_id for domain in bed.domains}
    plan = random_plan(config, rng)
    injector = FaultInjector(bed.env, plan).inject(bed.migrator)
    if bed.scheduler.health is not None:
        bed.scheduler.health.attach(injector)
    jobs = []
    for domain, dest_name in _random_jobs(
            config, rng, bed.domains, [h.name for h in bed.hosts]):
        jobs.append(bed.scheduler.submit(
            domain, bed.host(dest_name), replaceable=True))
    bed.env.run()
    return bed, jobs, plan, expected_ids


def _run_sharded(config: ChaosConfig, rng: np.random.Generator
                 ) -> tuple["ShardedCluster", list[MigrationJob], FaultPlan,
                            set[int]]:
    from .sharded import build_sharded_cluster

    cluster = build_sharded_cluster(
        nracks=config.nracks, hosts_per_rack=config.hosts_per_rack,
        vms_per_host=config.vms_per_host, nblocks=config.nblocks,
        npages=config.npages, seed=config.seed, retry=config.retry,
        health=config.health)
    expected_ids = {domain.domain_id for domain in cluster.domains}
    plan = random_plan(config, rng)
    cluster.inject_faults(plan)
    host_names = [host.name for host in cluster.hosts]
    jobs = []
    for domain, dest_name in _random_jobs(
            config, rng, cluster.domains, host_names):
        jobs.append(cluster.submit(domain, dest_name))
    cluster.drain(jobs)
    return cluster, jobs, plan, expected_ids


def run_chaos(config: ChaosConfig) -> ChaosReport:
    """One seeded chaos run: build, fault, drain, check."""
    rng = np.random.default_rng(config.seed)
    if config.mode == "sharded":
        target, jobs, plan, expected_ids = _run_sharded(config, rng)
    else:
        target, jobs, plan, expected_ids = _run_monolithic(config, rng)
    nfaults = (len(plan.partitions) + len(plan.flaps) + len(plan.crashes)
               + len(plan.blackouts) + len(plan.degradations))
    violations = check_invariants(target, expected_ids)
    schedulers = ([shard.scheduler for shard in target.shards]
                  if hasattr(target, "shards") else [target.scheduler])
    dead = sum(len(s.dead_letter) for s in schedulers)
    return ChaosReport(
        config=config, jobs=jobs, violations=violations,
        succeeded=sum(1 for job in jobs if job.succeeded),
        failed=sum(1 for job in jobs if job.status == "failed"),
        dead_lettered=dead, faults=nfaults)
