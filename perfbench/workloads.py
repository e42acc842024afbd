"""The benchmark's five workloads, built only from public ``repro`` APIs.

Every workload draws its inputs from the ``--seed`` once, in its
constructor, and then repeats the same input in every sample (``chaos``
is the exception: its samples walk a pool of seeds derived from the run
seed).  One sample is three calls the harness makes in order:

* :meth:`setup` builds the testbed or cluster and starts its guest
  activity -- timed as ``setup_s``;
* :meth:`run` performs the migrations under test -- timed as ``run_s``;
* :meth:`observe` reads the simulated outcome from public objects --
  untimed.  It returns the outputs that must repeat exactly for the same
  input, the operation counts, any correctness problems, and the exact
  per-layer counters.

The ticker and wave builders are copied here from
``benchmarks/bench_scale.py`` on purpose rather than imported: an edit to
that script must not silently change what this benchmark measures.  The
chaos job draw is copied from ``repro.cluster.chaos`` for another reason:
``run_chaos`` builds and runs in one call, and the benchmark times the
build apart from the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.analysis.experiments import (FULL_DISK_BLOCKS, PAPER_TABLE1,
                                       build_testbed)
from repro.cluster import (ChaosConfig, ChaosReport, assert_conserved,
                           build_cluster, build_sharded_cluster,
                           check_invariants)
from repro.cluster.chaos import random_plan
from repro.core import MigrationConfig
from repro.faults import FaultInjector
from repro.units import BLOCK_SIZE, MiB

#: The exact per-layer counters every workload reports (0 where the
#: workload does not exercise the layer).
COUNT_METRICS = (
    "sim.events", "sim.windows",
    "storage.guest_ios", "storage.guest_write_mb",
    "core.disk_iterations", "core.mem_rounds", "core.resend_frac",
    "core.downtime_err_pct", "core.im_copy_frac",
    "net.migrated_mb", "net.delta_hit_frac",
    "cluster.jobs", "cluster.attempts_per_job", "cluster.dead_letters",
    "cluster.engine_mismatch_frac",
    "persist.records", "persist.flushes",
    "faults.injected",
)

#: A TPM or IM downtime at or above this is not the paper's behaviour.
MAX_DOWNTIME_S = 1.0

# -- cluster geometry shared by the two 1,000-host workloads ------------------
#: Small VMs: these workloads stress orchestration volume, not copy volume.
NBLOCKS = 256
NPAGES = 32
#: Every VM rewrites two blocks this often, so 10,000 VMs keep more than
#: 10,000 events pending in the simulation at all times.
TICK_INTERVAL = 0.05
RACKS = 25
HOSTS_PER_RACK = 40
VMS_PER_HOST = 10
#: VMs each rack moves in ``scale_1k_host``.
EVACUATE_PER_RACK = 12


@dataclass
class Observation:
    """What one sample produced, read after its run."""

    #: Simulated results that must repeat exactly for the same input.
    outputs: tuple
    #: Operations attempted and failed (migrations; chaos: engine runs).
    attempted: int
    failed: int
    #: Correctness violations, human-readable; empty when correct.
    problems: list[str] = field(default_factory=list)
    #: Exact per-layer counters, a subset of :data:`COUNT_METRICS`.
    counts: dict = field(default_factory=dict)


# -- shared builders ------------------------------------------------------------


def start_ticker(env, domain, base: int, phase: float) -> None:
    """Perpetual background writer: 2 blocks at ``base`` every
    :data:`TICK_INTERVAL`, first write after ``phase`` seconds."""

    def proc(env):
        yield env.timeout(phase)
        while True:
            yield from domain.write(base, 2)
            yield env.timeout(TICK_INTERVAL)

    env.process(proc(env), name=f"ticker:{domain.name}")


def ticker_inputs(rng: np.random.Generator, nvms: int):
    """Per-VM ``(base block, phase)`` pairs for :func:`start_ticker`."""
    bases = rng.integers(0, NBLOCKS - 2, size=nvms)
    phases = rng.uniform(0.0, TICK_INTERVAL, size=nvms)
    return [(int(b), float(p)) for b, p in zip(bases, phases)]


def plan_wave(rng: np.random.Generator, per_rack: int
              ) -> list[list[tuple[int, int]]]:
    """Per rack, ``(vm index in rack, destination host index in rack)``
    moves: ``per_rack`` distinct VMs, each to a random rack-local host
    that is not the source of any move.  Indices, not objects, so every
    sample replays the same wave on a fresh cluster."""
    nvms = HOSTS_PER_RACK * VMS_PER_HOST
    wave = []
    for _ in range(RACKS):
        victims = sorted(int(v) for v in
                         rng.choice(nvms, size=per_rack, replace=False))
        sources = {v // VMS_PER_HOST for v in victims}
        targets = [h for h in range(HOSTS_PER_RACK) if h not in sources]
        wave.append([(v, targets[int(rng.integers(len(targets)))])
                     for v in victims])
    return wave


def by_id(domains) -> list:
    return sorted(domains, key=lambda d: d.domain_id)


class DriverLedger:
    """Every backend driver a sample's domains used.

    A migration detaches the domain and drops its driver on the source
    host, so the guest I/O counters are summed over every driver seen at
    set-up, between migrations, and at the end."""

    def __init__(self) -> None:
        self._drivers: dict[int, object] = {}
        self._baseline = (0, 0)

    def note(self, hosts) -> None:
        for host in hosts:
            for domain in host.domains:
                driver = host.driver_of(domain.domain_id)
                self._drivers[id(driver)] = driver

    def _totals(self) -> tuple[int, int]:
        drivers = self._drivers.values()
        return (sum(d.reads + d.writes for d in drivers),
                sum(d.bytes_written for d in drivers))

    def start(self, hosts) -> None:
        """Note ``hosts`` and count only I/O served from now on."""
        self.note(hosts)
        self._baseline = self._totals()

    def counts(self) -> dict:
        ios, written = self._totals()
        return {"storage.guest_ios": ios - self._baseline[0],
                "storage.guest_write_mb": (written - self._baseline[1]) / MiB}


def report_counts(reports) -> dict:
    """Transfer-pipeline counters summed over migration reports."""
    iterations = [it for r in reports for it in r.disk_iterations]
    resent = sum(it.units_sent for r in reports
                 for it in r.disk_iterations[1:])
    sent = sum(it.units_sent for it in iterations)
    hits = misses = 0
    for report in reports:
        delta = report.extra.get("delta_disk")
        if delta:
            hits += delta["hits"]
            misses += delta["misses"]
    return {
        "core.disk_iterations": len(iterations),
        "core.mem_rounds": sum(len(r.mem_rounds) for r in reports),
        "core.resend_frac": resent / sent if sent else 0.0,
        "net.migrated_mb": sum(r.migrated_bytes for r in reports) / MiB,
        "net.delta_hit_frac": (hits / (hits + misses)
                               if hits + misses else 0.0),
    }


def job_counts(jobs) -> dict:
    return {
        "cluster.jobs": len(jobs),
        "cluster.attempts_per_job": (sum(job.attempts for job in jobs)
                                     / len(jobs) if jobs else 0.0),
        "cluster.dead_letters": sum(1 for job in jobs
                                    if job.status == "failed"),
    }


def report_outputs(report) -> tuple:
    return (report.downtime, report.total_migration_time,
            report.migrated_bytes, len(report.disk_iterations),
            report.incremental)


def check_report(label: str, report, problems: list[str]) -> None:
    if report.downtime >= MAX_DOWNTIME_S:
        problems.append(f"{label}: downtime {report.downtime:.3f} s "
                        f">= {MAX_DOWNTIME_S} s")
    if not report.consistency_verified:
        problems.append(f"{label}: destination consistency not verified")


# -- workloads ------------------------------------------------------------------


class Workload:
    """Base: one seed-generated input, replayed by every sample."""

    name = ""
    #: Timed samples a run takes at least, whatever ``--seconds`` says
    #: (per pass: untraced and, with ``--trace 1``, traced).
    min_samples = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def input_key(self, index: int) -> int:
        """Samples with equal keys must produce identical outputs; runs
        that share a key ran the same input."""
        return self.seed

    def setup(self, index: int):
        raise NotImplementedError

    def snapshot(self, state) -> None:
        """Untimed bookkeeping between set-up and run."""

    def run(self, state) -> None:
        raise NotImplementedError

    def observe(self, state) -> Observation:
        raise NotImplementedError


@dataclass
class RoundtripState:
    beds: list
    ledger: DriverLedger = field(default_factory=DriverLedger)
    #: Events the warm-up processed, so ``sim.events`` counts the run only.
    setup_events: int = 0
    primaries: list = field(default_factory=list)
    backs: list = field(default_factory=list)


class PaperRoundtrip(Workload):
    """Table I + II on one link: TPM out, dwell, IM back, per workload."""

    name = "paper_roundtrip"
    scale = 0.05
    workloads = ("specweb", "video", "bonnie")
    warmup = 20.0
    dwell = 30.0

    def config(self) -> Optional[MigrationConfig]:
        return None

    def build(self, workload: str):
        bed = build_testbed(workload, scale=self.scale, seed=self.seed,
                            config=self.config())
        bed.start_workload()
        bed.run_for(self.warmup)
        return bed

    def setup(self, index: int) -> RoundtripState:
        return RoundtripState([self.build(w) for w in self.workloads])

    def snapshot(self, state: RoundtripState) -> None:
        state.ledger.start(host for bed in state.beds
                           for host in (bed.source, bed.destination))
        state.setup_events = sum(bed.env.events_processed
                                 for bed in state.beds)

    def run(self, state: RoundtripState) -> None:
        for bed in state.beds:
            state.primaries.append(bed.migrate())
            bed.run_for(self.dwell)
            state.ledger.note((bed.source, bed.destination))
            state.backs.append(bed.migrate())

    def observe(self, state: RoundtripState) -> Observation:
        problems: list[str] = []
        outputs = []
        for workload, bed, primary, back in zip(
                self.workloads, state.beds, state.primaries, state.backs):
            state.ledger.note((bed.source, bed.destination))
            check_report(f"{workload} TPM", primary, problems)
            check_report(f"{workload} IM", back, problems)
            if not back.incremental:
                problems.append(f"{workload} IM: back-migration ran as a "
                                "full TPM, not incrementally")
            outputs.append((workload, bed.env.events_processed,
                            report_outputs(primary), report_outputs(back)))
        reports = state.primaries + state.backs
        counts = {
            "sim.events": sum(bed.env.events_processed
                              for bed in state.beds) - state.setup_events,
            **state.ledger.counts(),
            **report_counts(reports),
            "core.im_copy_frac": (
                sum(r.storage_bytes for r in state.backs)
                / sum(r.migrated_bytes for r in state.primaries)),
            "core.downtime_err_pct": 100.0 * float(np.mean([
                abs(r.downtime * 1e3 - PAPER_TABLE1[w]["downtime_ms"])
                / PAPER_TABLE1[w]["downtime_ms"]
                for w, r in zip(self.workloads, state.primaries)])),
            **self.persist_counts(state),
        }
        failed = sum(1 for r in reports if r.extra.get("failed"))
        return Observation(tuple(outputs), attempted=len(reports),
                           failed=failed, problems=problems, counts=counts)

    def persist_counts(self, state: RoundtripState) -> dict:
        return {}


class DurableStack(PaperRoundtrip):
    """The bonnie roundtrip with durable tracking and the full adaptive
    transfer stack: every dirty mark is journaled, and the stream is
    striped over 4 lanes and delta-encoded."""

    name = "durable_stack"
    workloads = ("bonnie",)

    def config(self) -> MigrationConfig:
        # A delta cache as large as the VBD, as build_testbed sizes it.
        nblocks = max(int(FULL_DISK_BLOCKS * self.scale), 256)
        return MigrationConfig(delta_cache_mb=nblocks * BLOCK_SIZE / MiB,
                               multifd_channels=4, auto_converge=True,
                               persist_bitmap=True,
                               persist_sync_policy="wal")

    def persist_counts(self, state: RoundtripState) -> dict:
        records = flushes = 0
        for bed in state.beds:
            nbits = bed.domain.vbd.nblocks
            for host in (bed.source, bed.destination):
                stats = host.bitmap_store(bed.domain.domain_id,
                                          nbits=nbits).collect_stats()
                records += stats.records_appended
                flushes += stats.journal_flushes
        return {"persist.records": records, "persist.flushes": flushes}


@dataclass
class ClusterState:
    target: object
    moves: list
    ledger: DriverLedger = field(default_factory=DriverLedger)
    jobs: list = field(default_factory=list)


class Scale1kHost(Workload):
    """A sharded 1,000-host / 10,000-VM cluster under background writes;
    each rack moves 12 VMs to explicit rack-local destinations."""

    name = "scale_1k_host"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.tickers = ticker_inputs(
            rng, RACKS * HOSTS_PER_RACK * VMS_PER_HOST)
        self.wave = plan_wave(rng, EVACUATE_PER_RACK)

    def setup(self, index: int) -> ClusterState:
        cluster = build_sharded_cluster(
            nracks=RACKS, hosts_per_rack=HOSTS_PER_RACK,
            vms_per_host=VMS_PER_HOST, nblocks=NBLOCKS, npages=NPAGES,
            max_concurrent=10 ** 6)
        ticks = iter(self.tickers)
        moves = []
        for shard, rack_wave in zip(cluster.shards, self.wave):
            vms = [d for host in shard.hosts for d in by_id(host.domains)]
            for domain in vms:
                start_ticker(shard.env, domain, *next(ticks))
            moves += [(vms[v], shard.hosts[h].name) for v, h in rack_wave]
        return ClusterState(cluster, moves)

    def snapshot(self, state: ClusterState) -> None:
        state.ledger.start(state.target.hosts)

    def run(self, state: ClusterState) -> None:
        cluster = state.target
        state.jobs = [cluster.submit(vm, dest) for vm, dest in state.moves]
        cluster.drain(state.jobs)

    def observe(self, state: ClusterState) -> Observation:
        cluster = state.target
        problems = conservation_problems(cluster.assert_conserved)
        state.ledger.note(cluster.hosts)
        return cluster_observation(
            state, cluster.events_processed, cluster.makespan(state.jobs),
            problems, {"sim.windows": cluster.engine.windows})


class Place1kMono(Workload):
    """The same 1,000 hosts and 10,000 tickers on one monolithic
    simulation; two VMs per rack are each placed by the scheduler's
    HostManager pipeline over all 1,000 hosts and moved there.

    Single-VM moves rather than whole-host drains keep a sample under a
    second of host time (a drained host's ten VMs queue behind one disk
    for about half a simulated second while 10,000 tickers keep writing),
    so a run takes enough samples for a steady median."""

    name = "place_1k_mono"
    MOVES_PER_RACK = 2

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng(seed)
        self.tickers = ticker_inputs(
            rng, RACKS * HOSTS_PER_RACK * VMS_PER_HOST)
        per_rack = HOSTS_PER_RACK * VMS_PER_HOST
        self.movers = [r * per_rack + int(v) for r in range(RACKS)
                       for v in sorted(rng.choice(
                           per_rack, size=self.MOVES_PER_RACK,
                           replace=False))]

    def setup(self, index: int) -> ClusterState:
        bed = build_cluster(
            nhosts=RACKS * HOSTS_PER_RACK, vms_per_host=VMS_PER_HOST,
            wiring="rack", rack_size=HOSTS_PER_RACK, nblocks=NBLOCKS,
            npages=NPAGES, max_concurrent=10 ** 6)
        for domain, (base, phase) in zip(bed.domains, self.tickers):
            start_ticker(bed.env, domain, base, phase)
        return ClusterState(bed, [bed.domains[i] for i in self.movers])

    def snapshot(self, state: ClusterState) -> None:
        state.ledger.start(state.target.hosts)

    def run(self, state: ClusterState) -> None:
        # place() then submit(replaceable=True) is what evacuate() does
        # per domain; each submit raises the planned load the next
        # placement sees.
        scheduler = state.target.scheduler
        for domain in state.moves:
            state.jobs.append(scheduler.submit(
                domain, scheduler.place(domain), replaceable=True))
        scheduler.drain(state.jobs)

    def observe(self, state: ClusterState) -> Observation:
        bed = state.target
        problems = conservation_problems(
            lambda: assert_conserved(bed.migrator.migrations))
        state.ledger.note(bed.hosts)
        placements = tuple(job.destination.name for job in state.jobs)
        return cluster_observation(
            state, bed.env.events_processed,
            bed.scheduler.makespan(state.jobs), problems, {},
            extra_outputs=placements)


def conservation_problems(check) -> list[str]:
    try:
        check()
    except AssertionError as exc:
        return [f"byte conservation: {exc}"]
    return []


def cluster_observation(state: ClusterState, events: int, makespan: float,
                        problems: list[str], counts: dict,
                        extra_outputs: tuple = ()) -> Observation:
    jobs = state.jobs
    failed = [job for job in jobs if not job.succeeded]
    problems += [f"job for {job.domain.name} failed: {job.error}"
                 for job in failed[:5]]
    reports = [job.report for job in jobs if job.report is not None]
    outputs = (events, makespan,
               tuple(report_outputs(r) for r in reports), extra_outputs)
    return Observation(outputs, attempted=len(jobs), failed=len(failed),
                       problems=problems,
                       counts={"sim.events": events, **counts,
                               **state.ledger.counts(),
                               **report_counts(reports), **job_counts(jobs)})


def chaos_jobs(config: ChaosConfig, rng: np.random.Generator, domains,
               host_names: list[str]) -> list[tuple]:
    """``(domain, destination name)`` picks, drawn exactly as
    ``run_chaos`` draws them: each domain moves at most once, to a random
    host other than its own."""
    picks = []
    pool = list(domains)
    for _ in range(min(config.njobs, len(pool))):
        domain = pool.pop(int(rng.integers(len(pool))))
        candidates = [name for name in host_names
                      if domain.host is not None
                      and name != domain.host.name]
        picks.append((domain, candidates[int(rng.integers(len(candidates)))]))
    return picks


def chaos_report(config: ChaosConfig, target, schedulers, jobs,
                 expected_ids: set, plan) -> ChaosReport:
    """The report ``run_chaos`` returns for a drained ``target``."""
    return ChaosReport(
        config=config, jobs=jobs,
        violations=check_invariants(target, expected_ids),
        succeeded=sum(1 for job in jobs if job.succeeded),
        failed=sum(1 for job in jobs if job.status == "failed"),
        dead_lettered=sum(len(s.dead_letter) for s in schedulers),
        faults=(len(plan.partitions) + len(plan.flaps) + len(plan.crashes)
                + len(plan.blackouts) + len(plan.degradations)))


@dataclass
class ChaosState:
    seed: int
    mono: object
    sharded: object
    reports: list = field(default_factory=list)


class Chaos(Workload):
    """Seeded fault schedules (a rack partition and a link flap) with
    retry and health on, each run on the monolithic and then the sharded
    engine.

    The steps are those of ``run_chaos``, which builds and runs in one
    call, split so that set-up times the two cluster builds and the run
    times faults, jobs, drain and the invariant checks on those same
    clusters.  The rng draws are the same, so the outcome is the one
    ``run_chaos`` gives for the seed."""

    name = "chaos"
    #: Seeds per run: sample ``i`` replays seed ``1000 * S + i % POOL``.
    POOL = 40
    #: Every run times every seed of the pool, however fast the machine
    #: is, so runs of one ``--seed`` always cover the same inputs.
    min_samples = POOL

    def chaos_config(self, seed: int, mode: str) -> ChaosConfig:
        # No host crashes: with one crash per seed the sharded engine
        # raises StorageError("no tracking bitmap named 'precopy'") from
        # TPM on about 1 seed in 400 (592, 1139, 1411, 9028 at this
        # geometry), and a benchmark input must not fail.
        return ChaosConfig(seed=seed, mode=mode, nracks=8, hosts_per_rack=8,
                           vms_per_host=2, njobs=64, ncrashes=0)

    def input_key(self, index: int) -> int:
        return 1000 * self.seed + index % self.POOL

    def setup(self, index: int) -> ChaosState:
        seed = self.input_key(index)
        c = self.chaos_config(seed, "monolithic")
        mono = build_cluster(
            nhosts=c.nracks * c.hosts_per_rack, vms_per_host=c.vms_per_host,
            wiring="rack", rack_size=c.hosts_per_rack, nblocks=c.nblocks,
            npages=c.npages, retry=c.retry, health=c.health)
        sharded = build_sharded_cluster(
            nracks=c.nracks, hosts_per_rack=c.hosts_per_rack,
            vms_per_host=c.vms_per_host, nblocks=c.nblocks, npages=c.npages,
            seed=seed, retry=c.retry, health=c.health)
        return ChaosState(seed, mono, sharded)

    def run(self, state: ChaosState) -> None:
        state.reports = [self.run_monolithic(state),
                         self.run_sharded(state)]

    def run_monolithic(self, state: ChaosState) -> ChaosReport:
        config = self.chaos_config(state.seed, "monolithic")
        bed = state.mono
        rng = np.random.default_rng(config.seed)
        expected_ids = {domain.domain_id for domain in bed.domains}
        plan = random_plan(config, rng)
        injector = FaultInjector(bed.env, plan).inject(bed.migrator)
        if bed.scheduler.health is not None:
            bed.scheduler.health.attach(injector)
        jobs = [bed.scheduler.submit(domain, bed.host(dest),
                                     replaceable=True)
                for domain, dest in chaos_jobs(
                    config, rng, bed.domains, [h.name for h in bed.hosts])]
        bed.env.run()
        return chaos_report(config, bed, [bed.scheduler], jobs,
                            expected_ids, plan)

    def run_sharded(self, state: ChaosState) -> ChaosReport:
        config = self.chaos_config(state.seed, "sharded")
        cluster = state.sharded
        rng = np.random.default_rng(config.seed)
        expected_ids = {domain.domain_id for domain in cluster.domains}
        plan = random_plan(config, rng)
        cluster.inject_faults(plan)
        jobs = [cluster.submit(domain, dest)
                for domain, dest in chaos_jobs(
                    config, rng, cluster.domains,
                    [host.name for host in cluster.hosts])]
        cluster.drain(jobs)
        return chaos_report(config, cluster,
                            [shard.scheduler for shard in cluster.shards],
                            jobs, expected_ids, plan)

    def observe(self, state: ChaosState) -> Observation:
        mono, sharded = state.reports
        problems = [f"seed {state.seed} {r.config.mode}: {v}"
                    for r in (mono, sharded) for v in r.violations]
        outcome = {job.domain.name: job.succeeded for job in mono.jobs}
        matched = [job for job in sharded.jobs
                   if job.domain.name in outcome]
        mismatched = sum(1 for job in matched
                         if job.succeeded != outcome[job.domain.name])
        jobs = mono.jobs + sharded.jobs
        envs = {}
        for job in jobs:
            for holder in (job.domain, job.destination):
                envs[id(holder.env)] = holder.env
        reports = [job.report for job in jobs if job.report is not None]
        outputs = tuple(
            (r.config.mode, r.succeeded, r.failed, r.dead_lettered, r.faults,
             tuple(sorted((job.domain.name, job.status, job.attempts)
                          for job in r.jobs)))
            for r in (mono, sharded))
        counts = {
            "sim.events": sum(env.events_processed for env in envs.values()),
            **report_counts(reports), **job_counts(jobs),
            "cluster.engine_mismatch_frac": (mismatched / len(matched)
                                             if matched else 0.0),
            "faults.injected": mono.faults + sharded.faults,
        }
        return Observation(outputs, attempted=2,
                           failed=sum(1 for r in (mono, sharded)
                                      if not r.ok),
                           problems=problems, counts=counts)


#: Name -> workload class, in run order.
WORKLOADS = {cls.name: cls for cls in (
    PaperRoundtrip, DurableStack, Scale1kHost, Place1kMono, Chaos)}
