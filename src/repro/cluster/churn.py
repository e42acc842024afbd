"""Deterministic churn for datacenter-scale scenarios.

Real clusters are never static while a maintenance wave runs: VMs
arrive and depart, hosts roll through maintenance windows, and
occasionally a whole rack browns out.  :class:`ChurnGenerator` drives a
:class:`~repro.cluster.sharded.ShardedCluster` through exactly that, as
a **coordinator-level action timeline**: the plan is computed up front
(pure function of the config and the per-shard seed-split RNG streams),
then replayed by advancing the engine to each action's time and
applying it between conservative windows.  Two runs of the same config
and seed produce the same timeline, the same placements, and the same
ledgers — churn is reproducible, not noise.

Action kinds:

* ``arrival`` — a new VM materializes on a placement-chosen host of one
  shard (per-shard Poisson streams drawn from ``default_rng((seed,
  shard))``, so shard ``i``'s stream is independent of how many other
  shards exist);
* ``departure`` — a random resident VM shuts down and detaches;
* ``maintenance`` — rolling: the next host (global order) enters a
  maintenance window, is evacuated through the HostManager placement
  pass (which refuses maintenance hosts as destinations), and exits the
  window after ``maintenance_hold`` seconds;
* ``rack_failure`` — a correlated failure: every host in the chosen
  rack crashes at once through the existing fault planner
  (:meth:`repro.faults.plan.FaultPlan.crash` with ``down_for``), links
  blacking out per the injector's usual semantics.

The scenario format (``ChurnConfig``) is documented in docs/SCALE.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from ..errors import NoValidHost, ReproError
from ..faults.plan import FaultPlan
from ..vm.domain import Domain
from ..vm.memory import GuestMemory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment
    from .sharded import ShardedCluster


@dataclass(frozen=True)
class ChurnConfig:
    """One churn scenario, fully determined together with a seed."""

    #: Simulated seconds the scenario spans.
    duration: float = 30.0
    #: Mean VM arrivals per simulated second, whole cluster (split
    #: evenly across shards; 0 disables arrivals).
    arrival_rate: float = 0.0
    #: Mean VM departures per simulated second, whole cluster.
    departure_rate: float = 0.0
    #: Every this many seconds the next host (rolling, global order)
    #: enters maintenance and is evacuated (0 disables).
    maintenance_interval: float = 0.0
    #: How long an evacuated host stays in its maintenance window.
    maintenance_hold: float = 5.0
    #: Times at which a correlated rack failure strikes (the rack index
    #: cycles deterministically through the shards).
    rack_failure_times: tuple[float, ...] = ()
    #: How long crashed racks stay down.
    rack_failure_down_for: float = 5.0
    #: Geometry of churned-in VMs.
    vm_nblocks: int = 256
    vm_npages: int = 32
    prefill: float = 0.5

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ReproError(f"duration must be positive, got {self.duration}")
        for name in ("arrival_rate", "departure_rate",
                     "maintenance_interval"):
            if getattr(self, name) < 0:
                raise ReproError(f"{name} cannot be negative")


@dataclass
class ChurnAction:
    """One planned event: ``(time, kind, shard_index, ordinal)``."""

    time: float
    kind: str
    shard_index: int
    ordinal: int
    payload: dict = field(default_factory=dict)

    @property
    def sort_key(self) -> tuple:
        return (self.time, self.shard_index, self.ordinal)


class ChurnGenerator:
    """Plans and replays a churn timeline over a sharded cluster."""

    def __init__(self, cluster: "ShardedCluster", config: ChurnConfig,
                 workload: Optional[Callable[["Environment", Domain], None]]
                 = None) -> None:
        self.cluster = cluster
        self.config = config
        #: Called for every churned-in VM (and never for seed VMs):
        #: ``workload(env, domain)`` should start whatever background
        #: process the scenario wants on the new VM.
        self.workload = workload
        self.actions: list[ChurnAction] = []
        #: Jobs submitted by maintenance evacuations, in order.
        self.evacuation_jobs: list = []
        #: (kind -> count) of actions actually applied.
        self.applied: dict[str, int] = {}
        #: Hosts still inside a maintenance window -> exit time.
        self._maintenance_until: dict[str, float] = {}
        self._arrival_seq = 0

    # -- planning ----------------------------------------------------------

    def plan(self) -> list[ChurnAction]:
        """Compute the deterministic action timeline (idempotent)."""
        cfg = self.config
        shards = self.cluster.shards
        actions: list[ChurnAction] = []
        ordinal = 0
        # Per-shard Poisson arrival/departure streams from the
        # seed-split RNGs: shard i's stream never changes when the
        # cluster grows by more racks.
        per_shard_arrival = cfg.arrival_rate / max(len(shards), 1)
        per_shard_departure = cfg.departure_rate / max(len(shards), 1)
        for shard in shards:
            rng = shard.rng
            for kind, rate in (("arrival", per_shard_arrival),
                               ("departure", per_shard_departure)):
                if rate <= 0:
                    continue
                t = 0.0
                while True:
                    t += float(rng.exponential(1.0 / rate))
                    if t >= cfg.duration:
                        break
                    ordinal += 1
                    actions.append(ChurnAction(t, kind, shard.index,
                                               ordinal))
        if cfg.maintenance_interval > 0:
            nhosts = len(self.cluster.hosts)
            k = 0
            t = cfg.maintenance_interval
            while t < cfg.duration:
                ordinal += 1
                actions.append(ChurnAction(
                    t, "maintenance", k % len(shards), ordinal,
                    payload=dict(host_ordinal=k % nhosts)))
                k += 1
                t += cfg.maintenance_interval
        for i, t in enumerate(cfg.rack_failure_times):
            if not 0.0 <= t < cfg.duration:
                raise ReproError(
                    f"rack failure time {t} outside [0, {cfg.duration})")
            ordinal += 1
            actions.append(ChurnAction(float(t), "rack_failure",
                                       i % len(shards), ordinal))
        actions.sort(key=lambda a: a.sort_key)
        self.actions = actions
        return actions

    # -- execution ---------------------------------------------------------

    def run(self) -> dict:
        """Replay the timeline: advance the engine to each action's time,
        apply it, then run out the remaining duration.  Returns summary
        counts."""
        if not self.actions:
            self.plan()
        cluster = self.cluster
        for action in self.actions:
            cluster.run(until=action.time)
            self._exit_expired_maintenance(action.time)
            self._apply(action)
        cluster.run(until=self.config.duration)
        self._exit_expired_maintenance(self.config.duration)
        return dict(self.applied)

    def _bump(self, kind: str) -> None:
        self.applied[kind] = self.applied.get(kind, 0) + 1

    def _exit_expired_maintenance(self, now: float) -> None:
        for name in sorted(self._maintenance_until):
            if self._maintenance_until[name] <= now:
                del self._maintenance_until[name]
                self.cluster.host(name).exit_maintenance()

    def _apply(self, action: ChurnAction) -> None:
        handler = getattr(self, f"_apply_{action.kind}")
        handler(action)

    # -- handlers ----------------------------------------------------------

    def _apply_arrival(self, action: ChurnAction) -> None:
        cfg = self.config
        shard = self.cluster.shards[action.shard_index]
        try:
            host = shard.scheduler.hostmanager.select()
        except NoValidHost:
            return  # the rack is full/down; the arrival bounces
        vbd = host.prepare_vbd(cfg.vm_nblocks)
        filled = int(cfg.vm_nblocks * cfg.prefill)
        if filled:
            vbd.write(0, filled)
        self._arrival_seq += 1
        domain = Domain(shard.env,
                        GuestMemory(cfg.vm_npages, clock=shard.clock),
                        name=f"churn-{shard.name}-{self._arrival_seq}")
        host.attach_domain(domain, vbd)
        if self.workload is not None:
            self.workload(shard.env, domain)
        self._bump("arrival")

    def _apply_departure(self, action: ChurnAction) -> None:
        shard = self.cluster.shards[action.shard_index]
        # Never shut down a VM with an in-flight migration: the detach
        # would yank state out from under the scheme mid-copy.
        migrating = {job.domain.domain_id
                     for job in shard.scheduler.jobs
                     if job.ended_at is None}
        residents = [d for host in shard.hosts for d in host.domains
                     if d.running and d.domain_id not in migrating]
        if not residents:
            return
        residents.sort(key=lambda d: d.domain_id)
        victim = residents[int(shard.rng.integers(len(residents)))]
        victim.host.detach_domain(victim.domain_id)
        self._bump("departure")

    def _apply_maintenance(self, action: ChurnAction) -> None:
        hosts = self.cluster.hosts
        host = hosts[action.payload["host_ordinal"]]
        if not host.available:
            return  # already down or already in a window
        host.enter_maintenance()
        self._maintenance_until[host.name] = (
            action.time + self.config.maintenance_hold)
        shard = self.cluster.shard_of(host.name)
        try:
            jobs = shard.scheduler.evacuate(host)
        except NoValidHost:
            jobs = []  # nowhere to drain to right now; window still opens
        self.evacuation_jobs.extend(jobs)
        self._bump("maintenance")

    def _apply_rack_failure(self, action: ChurnAction) -> None:
        from ..faults.injector import FaultInjector

        shard = self.cluster.shards[action.shard_index]
        plan = FaultPlan()
        for host in shard.hosts:
            if host.crashed:
                continue
            plan.crash(host.name, at=action.time,
                       down_for=self.config.rack_failure_down_for)
        if plan.empty:
            return
        FaultInjector(shard.env, plan).inject(shard.migrator)
        self._bump("rack_failure")
