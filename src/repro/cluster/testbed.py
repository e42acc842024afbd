"""Cluster testbed builder: N hosts, M VMs each, a shared topology.

Scales the paper's two-machine testbed sideways.  Three wirings:

* ``"full"`` — every host pair gets a direct link (the degenerate case
  where routing never multi-hops; matches the old Migrator behaviour);
* ``"star"`` — one switch in the middle, every host one hop from it;
  every migration crosses two links and everything contends at the
  switch — the paper's actual LAN, scaled up;
* ``"rack"`` — hosts grouped into racks, one top-of-rack switch per
  rack, all ToR switches on a core switch: intra-rack migrations take
  two hops, cross-rack four.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..core.config import MigrationConfig
from ..core.manager import Migrator
from ..errors import ReproError
from ..storage.disk import PhysicalDisk
from ..storage.vbd import GenerationClock
from ..units import Gbps, MiB
from ..vm.domain import Domain
from ..vm.host import Host
from ..vm.memory import GuestMemory
from .scheduler import ClusterScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment
    from ..core.manager import RetryPolicy

#: Every link of a cluster: gigabit Ethernet with a LAN hop's latency.
LINK_BANDWIDTH = 1 * Gbps
LINK_LATENCY = 100e-6
#: Every host disk, the two-machine testbed's included: SATA2-era
#: sustained rates and seek time, calibrated so the effective migration
#: rate lands near the paper's ~49 MB/s (39 GB in ~800 s).
DISK_READ_BW = 60 * MiB
DISK_WRITE_BW = 52 * MiB
SEEK_TIME = 0.5e-3


def cluster_host(env: "Environment", name: str,
                 clock: GenerationClock) -> Host:
    """One cluster host: a disk at the ``DISK_*`` rates on the shared
    generation clock."""
    return Host(env, name,
                PhysicalDisk(env, DISK_READ_BW, DISK_WRITE_BW, SEEK_TIME),
                clock)


def attach_idle_vms(host: Host, count: int, nblocks: int, npages: int,
                    clock: GenerationClock) -> list[Domain]:
    """Attach ``count`` idle VMs to ``host``, each with a fully written
    ``nblocks`` disk and ``npages`` of memory, named
    ``vm-<host>-<ordinal>``."""
    domains = []
    for v in range(count):
        vbd = host.prepare_vbd(nblocks)
        vbd.write(0, nblocks)
        domain = Domain(host.env, GuestMemory(npages, clock=clock),
                        name=f"vm-{host.name}-{v}")
        host.attach_domain(domain, vbd)
        domains.append(domain)
    return domains


@dataclass
class ClusterBed:
    """A ready-to-run multi-host cluster experiment."""

    env: "Environment"
    hosts: list[Host]
    migrator: Migrator
    scheduler: ClusterScheduler
    config: MigrationConfig
    domains: list[Domain] = field(default_factory=list)

    def host(self, name: str) -> Host:
        for host in self.hosts:
            if host.name == name:
                return host
        raise ReproError(f"no host named {name!r}")


def build_cluster(
    nhosts: int = 4,
    vms_per_host: int = 2,
    wiring: str = "star",
    rack_size: int = 2,
    nblocks: int = 2048,
    npages: int = 256,
    max_concurrent: int = 4,
    per_link_limit: Optional[int] = None,
    observe: bool = False,
    retry: Optional["RetryPolicy"] = None,
    health: bool = False,
    shed_threshold: Optional[float] = None,
) -> ClusterBed:
    """Assemble an ``nhosts``-machine cluster with ``vms_per_host`` idle
    VMs per host and a :class:`~repro.cluster.scheduler.ClusterScheduler`
    on top.

    All hosts share one generation clock (block stamps stay globally
    unique, as in the two-machine testbed).  VMs are idle, their disks
    fully written — the cluster benchmarks measure orchestration
    behaviour (makespan, contention, conservation), not workload
    interference, which the two-machine experiments already cover.
    Every link runs at :data:`LINK_BANDWIDTH`/:data:`LINK_LATENCY` and
    every disk at the ``DISK_*`` rates.

    The recovery stack is opt-in: pass a ``retry``
    :class:`~repro.core.manager.RetryPolicy`, ``health=True`` for a
    :class:`~repro.cluster.health.HealthMonitor` (wired into placement
    via the ``healthy`` filter), and/or ``shed_threshold`` for
    admission-time load shedding.  All three default off so the
    equivalence fixtures never see them.
    """
    if nhosts < 2:
        raise ReproError(f"a cluster needs >= 2 hosts, got {nhosts}")
    if vms_per_host < 0:
        raise ReproError(f"vms_per_host cannot be negative: {vms_per_host}")
    from ..sim import Environment

    env = Environment()
    if observe:
        from ..obs import install

        install(env)
    cfg = MigrationConfig()
    clock = GenerationClock()
    hosts = [cluster_host(env, f"host{i:02d}", clock) for i in range(nhosts)]
    migrator = Migrator(env, cfg)

    if wiring == "full":
        for i, a in enumerate(hosts):
            for b in hosts[i + 1:]:
                migrator.connect(a, b, LINK_BANDWIDTH, LINK_LATENCY)
    elif wiring == "star":
        for host in hosts:
            migrator.topology.connect(host, "switch", LINK_BANDWIDTH,
                                      LINK_LATENCY)
    elif wiring == "rack":
        if rack_size < 1:
            raise ReproError(f"rack_size must be >= 1, got {rack_size}")
        for i, host in enumerate(hosts):
            migrator.topology.connect(host, f"rack{i // rack_size}",
                                      LINK_BANDWIDTH, LINK_LATENCY)
            migrator.topology.tag(host, "host")
        nracks = (nhosts + rack_size - 1) // rack_size
        for r in range(nracks):
            migrator.topology.connect(f"rack{r}", "core", LINK_BANDWIDTH,
                                      LINK_LATENCY)
            migrator.topology.tag(f"rack{r}", "rack")
        migrator.topology.tag("core", "core")
    else:
        raise ReproError(f"unknown wiring {wiring!r} "
                         "(expected full, star, or rack)")

    domains = [domain for host in hosts
               for domain in attach_idle_vms(host, vms_per_host, nblocks,
                                             npages, clock)]

    monitor = None
    if health:
        from .health import HealthMonitor

        monitor = HealthMonitor(env)
    scheduler = ClusterScheduler(env, migrator,
                                 max_concurrent=max_concurrent,
                                 per_link_limit=per_link_limit,
                                 config=cfg, retry=retry, health=monitor,
                                 shed_threshold=shed_threshold)
    return ClusterBed(env=env, hosts=hosts, migrator=migrator,
                      scheduler=scheduler, config=cfg, domains=domains)
