"""Wiring a :class:`~repro.faults.plan.FaultPlan` into a live testbed.

The injector owns one :class:`LinkFaultState` per link direction and
installs it as the link's ``faults`` hook; a link with no hook runs the
exact pre-fault code path, so the layer costs nothing when unused.

Blackout semantics (failure detection): a transmit that starts inside a
blackout waits for the window to end, but if the remaining wait would
exceed the plan's ``send_timeout`` the sender burns exactly the timeout
and then raises :class:`~repro.errors.NetworkError` — the deterministic
analogue of a TCP connection timing out.  Adjacent windows chain: the
timeout budget spans consecutive outages, not each one separately.

A host crash marks ``host.crashed`` and puts every attached link into a
permanent blackout, so both the victim's peers and any in-flight
migration observe it as an unrecoverable network failure.

This is the failure model behind the paper's §V motivation for
Incremental Migration ("if the migration fails, the user can resume the
virtual machine on the source machine and retry later"): the injector
kills an attempt deterministically, and the retrier's bitmap-based retry
demonstrates the cheap-recovery claim.

Observability (see docs/OBSERVABILITY.md): with a real tracer installed
the injector emits ``fault:*`` instants (blackout start/end, degradation
windows, crashes, send timeouts) and counts ``faults.send_timeouts``, so
a fault-recovery trace shows exactly where each attempt died.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional

from ..errors import FaultError, NetworkError
from ..net.link import DuplexLink, Link
from .plan import (BlackoutSpec, CrashSpec, DegradeSpec, FaultPlan,
                   FlapSpec, PartitionSpec)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.manager import Migrator
    from ..net.topology import Topology
    from ..sim import Environment


def _direction_matches(spec_direction: str, link_tag: str) -> bool:
    return spec_direction == "both" or spec_direction == link_tag


class LinkFaultState:
    """Fault windows affecting one :class:`~repro.net.link.Link` direction."""

    def __init__(self, env: "Environment", send_timeout: float) -> None:
        self.env = env
        self.send_timeout = float(send_timeout)
        #: Blackout windows as ``(start, end)``; ``end`` may be ``inf``.
        self._blackouts: list[tuple[float, float]] = []
        #: Degradation windows as ``(start, end, bw_factor, extra_latency)``.
        self._degradations: list[tuple[float, float, float, float]] = []
        #: Sends that died in a blackout (observability for tests/benchmarks).
        self.timed_out_sends = 0

    # -- window management -------------------------------------------------

    def add_blackout(self, start: float, end: float) -> None:
        self._blackouts.append((float(start), float(end)))

    def end_permanent_blackouts(self, at: float) -> None:
        """Close every open-ended blackout at ``at`` (host restarted)."""
        self._blackouts = [
            (start, float(at) if end == float("inf") else end)
            for start, end in self._blackouts]

    def add_degradation(self, start: float, end: float, factor: float,
                        extra_latency: float) -> None:
        self._degradations.append((float(start), float(end), float(factor),
                                   float(extra_latency)))

    # -- queries -----------------------------------------------------------

    def blackout_until(self, now: float) -> Optional[float]:
        """End of the blackout active at ``now``, or None when the link is up."""
        end: Optional[float] = None
        for start, stop in self._blackouts:
            if start <= now < stop and (end is None or stop > end):
                end = stop
        return end

    def bandwidth_factor(self, now: float) -> float:
        """Combined line-rate multiplier of the degradations active at ``now``."""
        factor = 1.0
        for start, stop, bw, _lat in self._degradations:
            if start <= now < stop:
                factor *= bw
        return factor

    def extra_latency(self, now: float) -> float:
        """Summed extra propagation latency of active degradations."""
        return sum(lat for start, stop, _bw, lat in self._degradations
                   if start <= now < stop)

    # -- the transmit gate -------------------------------------------------

    def gate(self, link: Link) -> Generator:
        """Hold a transmit while a blackout is active (``yield from``).

        Raises :class:`NetworkError` once the accumulated stall exceeds
        ``send_timeout``, spending exactly the timeout in simulated time
        first so failure detection is never free.
        """
        waited = 0.0
        while True:
            until = self.blackout_until(self.env.now)
            if until is None:
                return
            remaining = until - self.env.now
            if waited + remaining > self.send_timeout:
                grace = self.send_timeout - waited
                if grace > 0:
                    yield self.env.timeout(grace)
                self.timed_out_sends += 1
                self.env.metrics.counter("faults.send_timeouts").inc()
                self.env.tracer.instant("fault:send-timeout",
                                        category="fault", link=link.name,
                                        waited=self.send_timeout)
                raise NetworkError(
                    f"link {link.name!r}: send timed out after "
                    f"{self.send_timeout:.3f}s of blackout")
            yield self.env.timeout(remaining)
            waited += remaining


class FaultInjector:
    """Applies one :class:`FaultPlan` to the links and hosts of a testbed.

    Typical use::

        plan = FaultPlan().blackout(duration=2.0, at=5.0)
        injector = FaultInjector(env, plan).inject(migrator)

    ``inject`` attaches fault state to every connected link, registers the
    injector for migration phase marks (phase-triggered faults), and
    schedules time-triggered crashes.  ``detach`` restores every link to
    the pristine fault-free fast path.
    """

    def __init__(self, env: "Environment", plan: FaultPlan) -> None:
        self.env = env
        self.plan = plan
        #: ``id(link)`` -> fault state, for every attached link direction.
        self._states: dict[int, LinkFaultState] = {}
        #: ``(link, direction_tag)`` pairs, for direction-filtered specs.
        self._links: list[tuple[Link, str]] = []
        #: ``(duplex, (a, b))`` per attached duplex, for link-named specs
        #: (flaps) and partition cuts.
        self._duplexes: list[tuple[DuplexLink, tuple[str, str]]] = []
        self._hosts: dict[str, object] = {}
        #: host name -> links touching that host (for crash isolation).
        self._host_links: dict[str, list[Link]] = {}
        #: Specs already activated (phase triggers fire once).
        self._fired: set[tuple] = set()
        #: ``(time, description)`` log of every activated fault.
        self.log: list[tuple[float, str]] = []
        #: Set by :meth:`inject`; partitions and fabric-wide flaps need
        #: the graph to find crossing/fabric links.
        self._topology: "Optional[Topology]" = None
        #: Called as ``fn(host_name, now)`` when a planned crash fires /
        #: a crashed host restarts — the feed for
        #: :class:`~repro.cluster.health.HealthMonitor`.
        self.crash_listeners: list = []
        self.restart_listeners: list = []

    # -- attachment --------------------------------------------------------

    def _state_for(self, link: Link) -> LinkFaultState:
        state = self._states.get(id(link))
        if state is None:
            state = LinkFaultState(self.env, self.plan.send_timeout)
            self._states[id(link)] = state
            link.faults = state
        return state

    def attach(self, duplex: DuplexLink,
               hosts: tuple[str, str] = ("", "")) -> "FaultInjector":
        """Wire the plan into one full-duplex link (both directions).

        Time-triggered windows are installed immediately on the new link;
        phase-triggered ones wait for :meth:`on_phase`.  Re-attaching an
        already-attached duplex is a no-op, so lazily created links
        (e.g. sharded surrogate fabric) can be offered unconditionally.
        """
        if id(duplex.forward) in self._states:
            return self
        new_links = []
        for link, tag in ((duplex.forward, "forward"),
                          (duplex.backward, "backward")):
            self._state_for(link)
            self._links.append((link, tag))
            new_links.append((link, tag))
            for host in hosts:
                if host:
                    self._host_links.setdefault(host, []).append(link)
        ends = (hosts[0] or duplex.forward.name, hosts[1] or "")
        self._duplexes.append((duplex, ends))
        for spec in self.plan.flaps:
            if spec.at is None or not self._flap_covers(spec, ends):
                continue
            for link, tag in new_links:
                if _direction_matches(spec.direction, tag):
                    state = self._state_for(link)
                    for start, end in spec.windows(spec.at):
                        state.add_blackout(start, end)
        for spec in self.plan.partitions:
            if spec.at is None or self._topology is None:
                continue
            cut = frozenset(spec.isolate)
            if (hosts[0] and hosts[1]
                    and self._topology.partition_side(hosts[0], cut)
                    != self._topology.partition_side(hosts[1], cut)):
                for link, _tag in new_links:
                    self._state_for(link).add_blackout(
                        spec.at, spec.at + spec.duration)
        for spec in self.plan.blackouts:
            if spec.at is None:
                continue
            for link, tag in new_links:
                if _direction_matches(spec.direction, tag):
                    self._state_for(link).add_blackout(
                        spec.at, spec.at + spec.duration)
        for spec in self.plan.degradations:
            if spec.at is None:
                continue
            for link, tag in new_links:
                if _direction_matches(spec.direction, tag):
                    self._state_for(link).add_degradation(
                        spec.at, spec.at + spec.duration,
                        spec.bandwidth_factor, spec.extra_latency)
        return self

    def _flap_covers(self, spec: FlapSpec, ends: tuple[str, str]) -> bool:
        """Does this flap spec target the duplex with endpoints ``ends``?"""
        if spec.link is not None:
            return frozenset(spec.link) == frozenset(ends)
        if self._topology is None:
            return True  # attach-only use: no graph to scope to, flap all
        fabric = {"rack", "pod", "core"}
        return all(end and self._topology.tier_of(end) in fabric
                   for end in ends)

    def inject(self, migrator: "Migrator") -> "FaultInjector":
        """Attach to every link and host a :class:`Migrator` knows about."""
        topology = self._topology = migrator.topology
        for (a, b), duplex in topology.links.items():
            self.attach(duplex, hosts=(a, b))
        self._hosts.update(topology.hosts)
        for spec in self.plan.crashes:
            if spec.host not in self._hosts:
                raise FaultError(
                    f"crash names unknown host {spec.host!r}; "
                    f"known: {sorted(self._hosts)}")
        for i, spec in enumerate(self.plan.crashes):
            if spec.at is not None:
                self.env.process(self._crash_later(spec, spec.at, ("c", i)),
                                 name=f"fault:crash:{spec.host}")
        for spec in self.plan.blackouts:
            if spec.at is not None:
                self.env.tracer.instant(
                    "fault:blackout", category="fault",
                    direction=spec.direction, start=spec.at,
                    duration=spec.duration)
        for spec in self.plan.degradations:
            if spec.at is not None:
                self.env.tracer.instant(
                    "fault:degrade", category="fault",
                    direction=spec.direction, start=spec.at,
                    duration=spec.duration,
                    bandwidth_factor=spec.bandwidth_factor,
                    extra_latency=spec.extra_latency)
        for spec in self.plan.partitions:
            if spec.at is not None:
                crossing = self._topology.crossing_links(spec.isolate)
                self.log.append((spec.at, f"partition {list(spec.isolate)} "
                                          f"{spec.duration:.3f}s "
                                          f"({len(crossing)} links cut)"))
                self.env.tracer.instant(
                    "fault:partition", category="fault",
                    isolate=list(spec.isolate), start=spec.at,
                    duration=spec.duration, links_cut=len(crossing))
        for spec in self.plan.flaps:
            if spec.at is not None:
                self.log.append((spec.at, f"flap "
                                          f"{spec.link or 'fabric'} "
                                          f"x{spec.count} "
                                          f"{spec.down_time:.3f}s down / "
                                          f"{spec.up_time:.3f}s up"))
                self.env.tracer.instant(
                    "fault:flap", category="fault",
                    link=list(spec.link) if spec.link else None,
                    start=spec.at, count=spec.count,
                    down_time=spec.down_time, up_time=spec.up_time)
        migrator.fault_injector = self
        return self

    def detach(self) -> None:
        """Remove every fault hook, restoring the fault-free fast path."""
        for link, _tag in self._links:
            link.faults = None
        self._links.clear()
        self._duplexes.clear()
        self._states.clear()

    # -- phase triggers ----------------------------------------------------

    def on_phase(self, name: str, at: Optional[float] = None) -> None:
        """Activate phase-triggered faults (called by the migration)."""
        now = self.env.now if at is None else at
        for i, spec in enumerate(self.plan.blackouts):
            if spec.phase == name:
                self._install_blackout(spec, now + spec.offset, key=("b", i))
        for i, spec in enumerate(self.plan.degradations):
            if spec.phase == name:
                self._install_degrade(spec, now + spec.offset, key=("d", i))
        for i, spec in enumerate(self.plan.partitions):
            if spec.phase == name:
                self._install_partition(spec, now + spec.offset,
                                        key=("p", i))
        for i, spec in enumerate(self.plan.flaps):
            if spec.phase == name:
                self._install_flap(spec, now + spec.offset, key=("f", i))
        for i, spec in enumerate(self.plan.crashes):
            if spec.phase == name and ("c", i) not in self._fired:
                self._fired.add(("c", i))
                self.env.process(
                    self._crash_later(spec, now + spec.offset, ("c", i)),
                    name=f"fault:crash:{spec.host}")

    # -- installation (phase-triggered, one-shot) ------------------------

    def _matching_links(self, direction: str) -> list[Link]:
        return [link for link, tag in self._links
                if _direction_matches(direction, tag)]

    def _install_blackout(self, spec: BlackoutSpec, start: float,
                          key: tuple) -> None:
        if key in self._fired:
            return
        self._fired.add(key)
        for link in self._matching_links(spec.direction):
            self._state_for(link).add_blackout(start, start + spec.duration)
        self.log.append((start, f"blackout[{spec.direction}] "
                                f"{spec.duration:.3f}s"))
        self.env.tracer.instant("fault:blackout", category="fault",
                                direction=spec.direction, start=start,
                                duration=spec.duration)

    def _install_degrade(self, spec: DegradeSpec, start: float,
                         key: tuple) -> None:
        if key in self._fired:
            return
        self._fired.add(key)
        for link in self._matching_links(spec.direction):
            self._state_for(link).add_degradation(
                start, start + spec.duration, spec.bandwidth_factor,
                spec.extra_latency)
        self.log.append((start, f"degrade[{spec.direction}] "
                                f"x{spec.bandwidth_factor:.2f} "
                                f"+{spec.extra_latency * 1e3:.1f}ms "
                                f"{spec.duration:.3f}s"))
        self.env.tracer.instant("fault:degrade", category="fault",
                                direction=spec.direction, start=start,
                                duration=spec.duration,
                                bandwidth_factor=spec.bandwidth_factor,
                                extra_latency=spec.extra_latency)

    def _install_partition(self, spec: PartitionSpec, start: float,
                           key: tuple) -> None:
        if key in self._fired:
            return
        self._fired.add(key)
        if self._topology is None:
            raise FaultError(
                "partition faults need a topology; use inject(migrator), "
                "not bare attach()")
        cut = frozenset(spec.isolate)
        ncut = 0
        for (a, b), duplex in self._topology.links.items():
            if (self._topology.partition_side(a, cut)
                    == self._topology.partition_side(b, cut)):
                continue
            ncut += 1
            for link in (duplex.forward, duplex.backward):
                self._state_for(link).add_blackout(
                    start, start + spec.duration)
        self.log.append((start, f"partition {list(spec.isolate)} "
                                f"{spec.duration:.3f}s ({ncut} links cut)"))
        self.env.tracer.instant("fault:partition", category="fault",
                                isolate=list(spec.isolate), start=start,
                                duration=spec.duration, links_cut=ncut)

    def _install_flap(self, spec: FlapSpec, start: float, key: tuple) -> None:
        if key in self._fired:
            return
        self._fired.add(key)
        windows = spec.windows(start)
        for duplex, ends in self._duplexes:
            if not self._flap_covers(spec, ends):
                continue
            for link, tag in ((duplex.forward, "forward"),
                              (duplex.backward, "backward")):
                if _direction_matches(spec.direction, tag):
                    state = self._state_for(link)
                    for lo, hi in windows:
                        state.add_blackout(lo, hi)
        self.log.append((start, f"flap {spec.link or 'fabric'} "
                                f"x{spec.count} {spec.down_time:.3f}s"))
        self.env.tracer.instant("fault:flap", category="fault",
                                link=list(spec.link) if spec.link else None,
                                start=start, count=spec.count,
                                down_time=spec.down_time,
                                up_time=spec.up_time)

    def _crash_later(self, spec: CrashSpec, at: float, key: tuple) -> Generator:
        if at > self.env.now:
            yield self.env.timeout(at - self.env.now)
        self._apply_crash(spec)
        return None

    def _apply_crash(self, spec: CrashSpec) -> None:
        host = self._hosts.get(spec.host)
        if host is not None:
            if hasattr(host, "crash"):
                # Full lifecycle: suspend domains, drop in-memory bitmaps,
                # lose un-flushed journal tails (see Host.crash).
                host.crash()
            else:
                host.crashed = True
        for link in self._host_links.get(spec.host, []):
            self._state_for(link).add_blackout(self.env.now, float("inf"))
        self.log.append((self.env.now, f"crash {spec.host}"))
        self.env.tracer.instant("fault:crash", category="fault",
                                host=spec.host, down_for=spec.down_for)
        for listener in self.crash_listeners:
            listener(spec.host, self.env.now)
        if spec.down_for is not None:
            self.env.process(self._restart_later(spec),
                             name=f"fault:restart:{spec.host}")

    def _restart_later(self, spec: CrashSpec) -> Generator:
        yield self.env.timeout(spec.down_for)
        self._apply_restart(spec)
        return None

    def _apply_restart(self, spec: CrashSpec) -> None:
        host = self._hosts.get(spec.host)
        if host is not None:
            if hasattr(host, "restart"):
                host.restart()
            else:
                host.crashed = False
        for link in self._host_links.get(spec.host, []):
            self._state_for(link).end_permanent_blackouts(self.env.now)
        self.log.append((self.env.now, f"restart {spec.host}"))
        self.env.tracer.instant("fault:restart", category="fault",
                                host=spec.host)
        for listener in self.restart_listeners:
            listener(spec.host, self.env.now)
