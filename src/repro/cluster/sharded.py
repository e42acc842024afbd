"""Datacenter-scale sharded cluster: one simulation shard per rack.

Builds on :class:`repro.sim.sharded.ShardedEngine`: each rack gets its
own :class:`~repro.sim.Environment`, hosts, ToR switch, core-uplink,
:class:`~repro.core.manager.Migrator` and
:class:`~repro.cluster.scheduler.ClusterScheduler` — node, host and
link *names* identical to the monolithic ``build_cluster(wiring="rack")``
layout, so merged per-link byte ledgers line up name-for-name with a
monolithic run of the same scenario.

**Cross-rack migrations** use the *surrogate host* model: the whole
migration executes inside the **source** shard against a surrogate
:class:`~repro.vm.host.Host` bearing the real destination's name, wired
through replica fabric links (``rackN<->core``) with the real latency
and bandwidth.  Phase timings, downtime, wire bytes and per-link
charges are therefore computed exactly as the monolithic engine would
(absent cross-shard fabric contention — see docs/SCALE.md for the
contention caveat).  When the migration commits, the domain and its VBD
are detached from the surrogate and shipped through the engine's
cross-shard message queue; the **destination** shard attaches them to
the real host at the first conservative window boundary after
completion (arrival visibility is boundary-quantized; all report
metrics were already final).  Generation clocks are Lamport-merged on
arrival: the destination clock fast-forwards past every stamp in the
transplanted state, so stamp monotonicity — the substrate of the
block-bitmap consistency checks — survives the shard hop.

**Determinism / seed-splitting**: shard ``i`` owns
``numpy.random.default_rng((seed, i))``, so a per-shard random stream
is independent of shard count and iteration order; the coordinator
itself is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.config import MigrationConfig
from ..core.manager import Migrator
from ..errors import MigrationError, ReproError
from ..sim import Environment
from ..sim.sharded import ShardedEngine
from ..storage.vbd import GenerationClock
from ..vm.domain import Domain
from ..vm.host import Host
from .accounting import LinkAudit, audit_link_bytes
from .scheduler import ClusterScheduler, MigrationJob
from .testbed import (LINK_BANDWIDTH, LINK_LATENCY, attach_idle_vms,
                      cluster_host)


@dataclass
class ClusterShard:
    """One rack's worth of simulation: env, hosts, migrator, scheduler."""

    name: str
    index: int
    env: Environment
    hosts: list[Host]
    migrator: Migrator
    scheduler: ClusterScheduler
    clock: GenerationClock
    rng: np.random.Generator
    #: real destination host name -> surrogate Host living in this shard
    #: (created lazily per cross-rack destination).
    surrogates: dict[str, Host] = field(default_factory=dict)

    def host(self, name: str) -> Host:
        for host in self.hosts:
            if host.name == name:
                return host
        raise ReproError(f"no host named {name!r} in shard {self.name!r}")


class ShardedCluster:
    """A rack-sharded datacenter simulation with one placement surface.

    Use :func:`build_sharded_cluster`.  Submissions are
    coordinator-level operations issued *between* conservative windows;
    :meth:`drain` advances the engine.
    """

    def __init__(self, engine: ShardedEngine,
                 shards: list[ClusterShard]) -> None:
        self.engine = engine
        self.shards = shards
        self._shard_of_host: dict[str, ClusterShard] = {}
        for shard in shards:
            for host in shard.hosts:
                self._shard_of_host[host.name] = shard
        #: id(job) of cross-rack jobs whose engine source is still held
        #: (submitted but not yet transplanted or failed).
        self._live_cross: set[int] = set()
        #: One :class:`~repro.faults.FaultInjector` per shard after
        #: :meth:`inject_faults`, index-aligned with ``shards``.
        self.fault_injectors: list = []

    # -- faults ------------------------------------------------------------

    def inject_faults(self, plan) -> list:
        """Split one cluster-wide :class:`~repro.faults.FaultPlan` across
        the shards and inject it.

        Each shard receives the plan narrowed to its own hosts (crashes
        on other racks' hosts are dropped; link-scoped specs — blackouts,
        degradations, partitions, flaps — are kept verbatim and match
        whatever links the shard topology actually has, including
        surrogate replica fabric created later).  Shards with a
        :class:`~repro.cluster.health.HealthMonitor` get it subscribed
        to their injector's crash/restart feed.
        """
        from ..faults import FaultInjector

        if self.fault_injectors:
            raise ReproError("faults already injected into this cluster")
        for shard in self.shards:
            shard_plan = plan.narrowed_to(
                host.name for host in shard.hosts)
            injector = FaultInjector(shard.env, shard_plan)
            injector.inject(shard.migrator)
            if shard.scheduler.health is not None:
                shard.scheduler.health.attach(injector)
            self.fault_injectors.append(injector)
        return self.fault_injectors

    def surrogate_residents(self) -> list[Domain]:
        """Domains currently attached to a surrogate host (in flight to
        another rack, or leaked there by a failure).  After
        :meth:`drain` this must be empty — the chaos harness's
        no-surrogate-leak invariant."""
        out: list[Domain] = []
        for shard in self.shards:
            for surrogate in shard.surrogates.values():
                out.extend(surrogate.domains)
        out.sort(key=lambda d: d.domain_id)
        return out

    # -- lookups -----------------------------------------------------------

    @property
    def hosts(self) -> list[Host]:
        """All real hosts across shards, in global name order."""
        return [host for shard in self.shards for host in shard.hosts]

    @property
    def domains(self) -> list[Domain]:
        """All resident domains across shards (excluding surrogates)."""
        out: list[Domain] = []
        for shard in self.shards:
            for host in shard.hosts:
                out.extend(host.domains)
        out.sort(key=lambda d: d.domain_id)
        return out

    def shard_of(self, host_name: str) -> ClusterShard:
        try:
            return self._shard_of_host[host_name]
        except KeyError:
            raise ReproError(f"no host named {host_name!r}") from None

    def host(self, name: str) -> Host:
        return self.shard_of(name).host(name)

    @property
    def jobs(self) -> list[MigrationJob]:
        """Every job across all shard schedulers, submission-ordered per
        shard, shards in index order."""
        out: list[MigrationJob] = []
        for shard in self.shards:
            out.extend(shard.scheduler.jobs)
        return out

    # -- submission --------------------------------------------------------

    def submit(self, domain: Domain, destination_name: str,
               scheme: str = "tpm") -> MigrationJob:
        """Queue one migration by destination host *name*.

        Intra-rack moves go straight to the owning shard's scheduler.
        Cross-rack moves run in the source shard against a surrogate
        destination and transplant the domain at completion.
        """
        if domain.host is None:
            raise MigrationError(f"{domain} is not running on any host")
        src_shard = self._shard_of_host.get(domain.host.name)
        if src_shard is None:
            raise MigrationError(
                f"{domain} runs on {domain.host.name!r}, which is not a "
                "sharded-cluster host")
        dst_shard = self.shard_of(destination_name)
        if dst_shard is src_shard:
            return src_shard.scheduler.submit(
                domain, src_shard.host(destination_name), scheme=scheme)
        return self._submit_cross(domain, src_shard, dst_shard,
                                  destination_name, scheme)

    def _surrogate(self, src_shard: ClusterShard, dst_shard: ClusterShard,
                   destination_name: str) -> Host:
        """The surrogate stand-in for ``destination_name`` inside the
        source shard, with replica fabric links named exactly like the
        monolithic topology's (so merged ledgers sum per name)."""
        surrogate = src_shard.surrogates.get(destination_name)
        if surrogate is not None:
            return surrogate
        surrogate = cluster_host(src_shard.env, destination_name,
                                 src_shard.clock)
        # The HostManager must never offer the stand-in as a placement
        # destination: the real host lives in another shard.
        surrogate.is_surrogate = True
        topo = src_shard.migrator.topology
        # Replica fabric: rack<dst> joins this shard's core with the real
        # inter-rack latency; connect() dedupes repeats.  Orientation
        # (rack first) matches build_cluster, keeping link names equal.
        topo.connect(dst_shard.name, "core", LINK_BANDWIDTH, LINK_LATENCY)
        topo.tag(dst_shard.name, "rack")
        topo.connect(surrogate, dst_shard.name, LINK_BANDWIDTH,
                     LINK_LATENCY)
        topo.tag(surrogate, "host")
        src_shard.surrogates[destination_name] = surrogate
        injector = src_shard.migrator.fault_injector
        if injector is not None:
            # The replica fabric must fault like the real thing: offer
            # every topology link to the shard's injector (re-attach of
            # known duplexes is a no-op, so this only wires the new ones).
            for key, duplex in topo.links.items():
                injector.attach(duplex, hosts=key)
        return surrogate

    def _submit_cross(self, domain: Domain, src_shard: ClusterShard,
                      dst_shard: ClusterShard, destination_name: str,
                      scheme: str) -> MigrationJob:
        surrogate = self._surrogate(src_shard, dst_shard, destination_name)
        source_host = domain.host
        # The job is a cross-shard message source from submission until
        # its transplant (or failure) — the engine narrows to
        # lookahead-bounded windows for exactly that span.
        self.engine.add_source()
        job = src_shard.scheduler.submit(domain, surrogate, scheme=scheme)
        self._live_cross.add(id(job))
        src_shard.env.process(
            self._cross_watch(job, src_shard, dst_shard, destination_name,
                              source_host),
            name=f"xrack:{domain.name}->{destination_name}")
        return job

    def _cross_watch(self, job: MigrationJob, src_shard: ClusterShard,
                     dst_shard: ClusterShard, destination_name: str,
                     source_host: Host):
        """Source-shard process: on commit, ship domain+VBD to the real
        destination via the engine's message queue."""
        yield job.process
        env = src_shard.env
        if not job.succeeded:
            # Nothing arrived on the far side; the failure is fully
            # contained in the source shard (job.error has the story).
            # A post-handover failure (partition mid-postcopy) leaves
            # the domain on the surrogate — the stand-in's state never
            # left this shard, so roll the transplant back: re-home the
            # VM on its source host with the most complete disk copy
            # the shard holds.
            surrogate = job.destination
            domain_id = job.domain.domain_id
            if (getattr(surrogate, "is_surrogate", False)
                    and any(d.domain_id == domain_id
                            for d in surrogate.domains)):
                rolled, vbd = surrogate.detach_domain(domain_id)
                source_host.attach_domain(rolled, vbd)
                env.metrics.counter("cluster.cross_rack.rollbacks").inc()
                env.tracer.instant(
                    "xrack:rollback", category="cluster",
                    domain=rolled.name, surrogate=destination_name,
                    back_to=source_host.name)
            self._live_cross.discard(id(job))
            self.engine.remove_source()
            return
        domain_id = job.domain.domain_id
        domain, vbd = job.destination.detach_domain(domain_id)
        real_dest = dst_shard.host(destination_name)
        dst_clock = dst_shard.clock

        def transplant(dest_env: Environment) -> None:
            # Lamport-merge the generation clocks: new writes on the
            # destination must stamp strictly newer than everything the
            # migrated state carries.
            floor = int(vbd._gen.max()) if vbd.nblocks else 0
            mem_floor = int(domain.memory._gen.max())
            dst_clock._next = max(dst_clock._next, floor + 1, mem_floor + 1)
            domain.env = dest_env
            domain.memory.clock = dst_clock
            vbd.clock = dst_clock
            real_dest.attach_domain(domain, vbd)
            dest_env.metrics.counter("cluster.cross_rack.arrivals").inc()
            self._live_cross.discard(id(job))
            self.engine.remove_source()

        self.engine.send(dst_shard.name, env.now, transplant)

    # -- execution ---------------------------------------------------------

    def drain(self, jobs: Optional[list[MigrationJob]] = None
              ) -> list[MigrationJob]:
        """Advance the engine until the given jobs (default: all) have
        ended and any resulting transplants have landed.

        Safe with perpetual background workloads: while cross-shard
        activity is in flight the engine steps conservative windows;
        once quiescent, each shard runs straight to its own remaining
        jobs' completion (no cross influence is possible, so unbounded
        per-shard runs are sound — and fast).
        """
        jobs = self.jobs if jobs is None else jobs
        wanted = {id(job) for job in jobs}
        while True:
            # Settle cross-rack migrations and their transplants first:
            # they hold engine sources, so quiescence == none in flight.
            while not self.engine.quiescent:
                if not self.engine.step_window():
                    break
            pending_by_shard: dict[int, list] = {}
            for shard in self.shards:
                procs = [job.process for job in shard.scheduler.jobs
                         if id(job) in wanted and job.process is not None
                         and not job.process.processed]
                if procs:
                    pending_by_shard[shard.index] = (shard, procs)
            if not pending_by_shard:
                break
            for _index, (shard, procs) in sorted(pending_by_shard.items()):
                shard.env.run(until=shard.env.all_of(procs))
        return jobs

    # -- merged accounting -------------------------------------------------

    def audits(self) -> list[LinkAudit]:
        """Per-link conservation audits, shard by shard (each shard's
        migrations and links are self-contained, surrogates included)."""
        out: list[LinkAudit] = []
        for shard in self.shards:
            out.extend(audit_link_bytes(shard.migrator.migrations))
        return out

    def assert_conserved(self) -> None:
        bad = [audit for audit in self.audits() if not audit.conserved]
        if bad:
            raise AssertionError(
                "per-link byte accounting not conserved: "
                + ", ".join(repr(audit) for audit in bad))

    def link_ledger(self) -> dict[str, int]:
        """Merged directional-link byte counts, summed by link name
        across shards (replica fabric links fold into their real
        counterparts, matching the monolithic ledger's keys)."""
        ledger: dict[str, int] = {}
        for shard in self.shards:
            for duplex in shard.migrator.topology.links.values():
                for link in (duplex.forward, duplex.backward):
                    if link.bytes_sent:
                        ledger[link.name] = (ledger.get(link.name, 0)
                                             + link.bytes_sent)
        return dict(sorted(ledger.items()))

    def makespan(self, jobs: Optional[list[MigrationJob]] = None) -> float:
        jobs = self.jobs if jobs is None else jobs
        finished = [job for job in jobs if job.ended_at is not None]
        if not finished:
            return 0.0
        return (max(job.ended_at for job in finished)
                - min(job.submitted_at for job in finished))

    @property
    def events_processed(self) -> int:
        return self.engine.events_processed

    def __repr__(self) -> str:
        return (f"<ShardedCluster {len(self.shards)} shards, "
                f"{len(self._shard_of_host)} hosts>")


def build_sharded_cluster(
    nracks: int = 2,
    hosts_per_rack: int = 4,
    vms_per_host: int = 2,
    nblocks: int = 2048,
    npages: int = 256,
    max_concurrent: int = 4,
    config: Optional[MigrationConfig] = None,
    seed: int = 0,
    retry=None,
    health: bool = False,
) -> ShardedCluster:
    """Assemble a rack-sharded datacenter: one simulation shard per rack.

    Host/switch/link naming matches the monolithic
    ``build_cluster(nhosts=nracks*hosts_per_rack, wiring="rack",
    rack_size=hosts_per_rack)`` exactly — ``hostNN`` leaves under
    ``rackR`` ToR switches under one ``core`` — and VMs are created in
    the same global order from the same link, disk and VM definitions
    (:mod:`repro.cluster.testbed`), so domain ids, names and (absent
    cross-shard fabric contention) per-link byte ledgers are directly
    comparable.

    The engine's conservative lookahead bound is the inter-rack link
    latency, :data:`~repro.cluster.testbed.LINK_LATENCY`.
    """
    if nracks < 1:
        raise ReproError(f"need >= 1 rack, got {nracks}")
    if hosts_per_rack < 1:
        raise ReproError(f"need >= 1 host per rack, got {hosts_per_rack}")
    cfg = config if config is not None else MigrationConfig()
    engine = ShardedEngine(lookahead=LINK_LATENCY)
    shards: list[ClusterShard] = []
    for r in range(nracks):
        env = Environment()
        rack = f"rack{r}"
        engine.add_shard(rack, env)
        clock = GenerationClock()
        migrator = Migrator(env, cfg)
        topo = migrator.topology
        hosts = []
        for j in range(hosts_per_rack):
            host = cluster_host(env, f"host{r * hosts_per_rack + j:02d}",
                                clock)
            topo.connect(host, rack, LINK_BANDWIDTH, LINK_LATENCY)
            topo.tag(host, "host")
            hosts.append(host)
        topo.connect(rack, "core", LINK_BANDWIDTH, LINK_LATENCY)
        topo.tag(rack, "rack")
        topo.tag("core", "core")
        for host in hosts:
            attach_idle_vms(host, vms_per_host, nblocks, npages, clock)
        monitor = None
        if health:
            from .health import HealthMonitor

            monitor = HealthMonitor(env)
        scheduler = ClusterScheduler(env, migrator,
                                     max_concurrent=max_concurrent,
                                     config=cfg, retry=retry,
                                     health=monitor)
        shards.append(ClusterShard(
            name=rack, index=r, env=env, hosts=hosts, migrator=migrator,
            scheduler=scheduler, clock=clock,
            rng=np.random.default_rng((seed, r))))
    return ShardedCluster(engine, shards)
