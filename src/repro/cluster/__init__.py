"""Cluster-scale migration orchestration (ROADMAP north star).

Builds the layer above the point-to-point
:class:`~repro.core.manager.Migrator`: a
:class:`~repro.cluster.scheduler.ClusterScheduler` that runs many
migrations concurrently over a shared
:class:`~repro.net.topology.Topology` with admission control and
per-link in-flight limits, one HostManager placement pass for
evacuation and rebalancing, a per-link byte-conservation audit, and a
failure-recovery stack — per-host circuit breakers
(:mod:`~repro.cluster.health`), retry with re-placement and
dead-lettering (:class:`~repro.core.manager.RetryPolicy`), and a
seeded chaos harness (:mod:`~repro.cluster.chaos`).

Typical use::

    from repro.cluster import build_cluster

    bed = build_cluster(nhosts=4, vms_per_host=2, wiring="star")
    jobs = bed.scheduler.evacuate(bed.hosts[0])
    bed.scheduler.drain(jobs)
    print(bed.scheduler.makespan(jobs))
"""

from ..core.manager import RetryPolicy
from ..errors import AdmissionRejected, NoValidHost
from .accounting import LinkAudit, assert_conserved, audit_link_bytes
from .chaos import ChaosConfig, ChaosReport, check_invariants, run_chaos
from .health import CircuitBreaker, HealthMonitor
from .hostmanager import HostManager, HostState
from .scheduler import ClusterScheduler, JobFailure, MigrationJob
from .sharded import ShardedCluster, build_sharded_cluster
from .testbed import ClusterBed, build_cluster

__all__ = [
    "AdmissionRejected",
    "ChaosConfig",
    "ChaosReport",
    "CircuitBreaker",
    "ClusterBed",
    "ClusterScheduler",
    "HealthMonitor",
    "HostManager",
    "HostState",
    "JobFailure",
    "LinkAudit",
    "MigrationJob",
    "NoValidHost",
    "RetryPolicy",
    "ShardedCluster",
    "assert_conserved",
    "audit_link_bytes",
    "build_cluster",
    "build_sharded_cluster",
    "check_invariants",
    "run_chaos",
]
