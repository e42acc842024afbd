"""Wiring a :class:`~repro.faults.plan.FaultPlan` into a live testbed.

The injector installs a :class:`LinkFaultState` as a link direction's
``faults`` hook when that direction gets its first fault window.  A link
no fault ever touches keeps ``faults = None`` and runs the exact
pre-fault code path, so the layer costs nothing on links it never
touches; once every window of a state has ended, each query is one
compare.

Blackout semantics (failure detection): a transmit that starts inside a
blackout waits for the window to end, but if the remaining wait would
exceed the plan's ``send_timeout`` the sender burns exactly the timeout
and then raises :class:`~repro.errors.NetworkError` — the deterministic
analogue of a TCP connection timing out.  Adjacent windows chain: the
timeout budget spans consecutive outages, not each one separately.

A host crash marks ``host.crashed`` and puts every attached link into a
permanent blackout, so both the victim's peers and any in-flight
migration observe it as an unrecoverable network failure.  Each such
blackout records the crashed host, and a restart ends only its own
host's: a link between two crashed hosts stays dark until both are up.

This is the failure model behind the paper's §V motivation for
Incremental Migration ("if the migration fails, the user can resume the
virtual machine on the source machine and retry later"): the injector
kills an attempt deterministically, and the retrier's bitmap-based retry
demonstrates the cheap-recovery claim.

Observability (see docs/OBSERVABILITY.md): with a real tracer installed
the injector emits one ``fault:*`` instant per activated fault
(blackout, degrade, partition, flap), per crash and restart, and per
send timeout, and counts ``faults.send_timeouts``, so a fault-recovery
trace shows exactly where each attempt died.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Generator, Iterator, Optional,
                    Union)

from ..errors import FaultError, NetworkError
from ..net.link import DuplexLink, Link
from .plan import (BlackoutSpec, CrashSpec, DegradeSpec, FaultPlan,
                   FlapSpec, PartitionSpec)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.manager import Migrator
    from ..net.topology import Topology
    from ..sim import Environment
    from ..vm.host import Host

_LinkSpec = Union[BlackoutSpec, DegradeSpec, PartitionSpec, FlapSpec]


def _direction_matches(spec_direction: str, link_tag: str) -> bool:
    return spec_direction == "both" or spec_direction == link_tag


class LinkFaultState:
    """Fault windows affecting one :class:`~repro.net.link.Link` direction."""

    def __init__(self, env: "Environment", send_timeout: float) -> None:
        self.env = env
        self.send_timeout = float(send_timeout)
        #: Blackout windows as ``(start, end, host)``; ``end`` may be
        #: ``inf``, and ``host`` names the crashed host that opened an
        #: open-ended blackout (None for every other window).
        self._blackouts: list[tuple[float, float, Optional[str]]] = []
        #: Degradation windows as ``(start, end, bw_factor, extra_latency)``.
        self._degradations: list[tuple[float, float, float, float]] = []
        #: Latest end of any blackout / degradation window: from then on
        #: no window of that kind is active, and the queries return at
        #: once.
        self._blackout_end = float("-inf")
        self._degradation_end = float("-inf")
        #: Sends that died in a blackout (observability for tests/benchmarks).
        self.timed_out_sends = 0

    # -- window management -------------------------------------------------

    def add_blackout(self, start: float, end: float,
                     host: Optional[str] = None) -> None:
        """Add a blackout; ``host`` marks one opened by that host's crash."""
        end = float(end)
        self._blackouts.append((float(start), end, host))
        if end > self._blackout_end:
            self._blackout_end = end

    def end_permanent_blackouts(self, at: float, host: str) -> None:
        """Close, at ``at``, every open-ended blackout that ``host``'s
        crash opened (``host`` restarted)."""
        at = float(at)
        self._blackouts = [
            (start, at if end == float("inf") and opener == host else end,
             opener)
            for start, end, opener in self._blackouts]
        self._blackout_end = max((end for _start, end, _opener
                                  in self._blackouts), default=float("-inf"))

    def add_degradation(self, start: float, end: float, factor: float,
                        extra_latency: float) -> None:
        end = float(end)
        self._degradations.append((float(start), end, float(factor),
                                   float(extra_latency)))
        if end > self._degradation_end:
            self._degradation_end = end

    # -- queries -----------------------------------------------------------

    def blackout_until(self, now: float) -> Optional[float]:
        """End of the blackout active at ``now``, or None when the link is up."""
        if now >= self._blackout_end:
            return None
        end: Optional[float] = None
        for start, stop, _host in self._blackouts:
            if start <= now < stop and (end is None or stop > end):
                end = stop
        return end

    def bandwidth_factor(self, now: float) -> float:
        """Combined line-rate multiplier of the degradations active at ``now``."""
        factor = 1.0
        if now >= self._degradation_end:
            return factor
        for start, stop, bw, _lat in self._degradations:
            if start <= now < stop:
                factor *= bw
        return factor

    def extra_latency(self, now: float) -> float:
        """Summed extra propagation latency of active degradations."""
        if now >= self._degradation_end:
            return 0
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

    ``inject`` attaches every connected link, registers the injector for
    migration phase marks (phase-triggered faults), and schedules
    time-triggered crashes.  A link direction gets its fault state with
    its first window.  ``detach`` restores every link to the pristine
    fault-free fast path.

    Every link fault (blackout, degradation, partition, flap) activates
    exactly once through :meth:`_activate`: an ``at=`` spec when the
    first link is attached, a ``phase=`` spec at its phase mark.  An
    active fault covers every attached link, including links attached
    after it fired, so its effect depends only on the spec, its start
    time and the link.
    """

    def __init__(self, env: "Environment", plan: FaultPlan) -> None:
        self.env = env
        self.plan = plan
        #: ``id(link)`` -> fault state, for every attached link direction
        #: that has had a window (see :meth:`_state_for`).
        self._states: dict[int, LinkFaultState] = {}
        #: ``id(duplex)`` -> ``(duplex, (a, b))`` per attached duplex, in
        #: attach order; ``a``/``b`` name the endpoints (empty when
        #: unknown) for flaps, partitions, crashes.
        self._duplexes: dict[int, tuple[DuplexLink, tuple[str, str]]] = {}
        self._hosts: dict[str, "Host"] = {}
        #: Activated link faults as ``(spec, start)``, replayed on every
        #: link attached later.
        self._active: list[tuple[_LinkSpec, float]] = []
        #: Keys of specs already activated (every trigger fires once).
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
        """The fault state of ``link``, installed as its hook on first use."""
        state = self._states.get(id(link))
        if state is None:
            state = LinkFaultState(self.env, self.plan.send_timeout)
            self._states[id(link)] = state
            link.faults = state
        return state

    def attach(self, duplex: DuplexLink,
               hosts: tuple[str, str] = ("", "")) -> "FaultInjector":
        """Wire the plan into one full-duplex link (both directions).

        The new link gets every fault already active, then the plan's
        time-triggered faults activate if this is the first attach.
        Re-attaching an already-attached duplex is a no-op, so lazily
        created links (e.g. sharded surrogate fabric) can be offered
        unconditionally.
        """
        if id(duplex) in self._duplexes:
            return self
        self._duplexes[id(duplex)] = (duplex, hosts)
        for spec, start in self._active:
            self._apply(spec, start, duplex, hosts)
        for key, spec in self._link_specs():
            if spec.at is not None:
                self._activate(spec, spec.at, key)
        return self

    def _flap_covers(self, spec: FlapSpec, hosts: tuple[str, str]) -> bool:
        """Does this flap spec target the duplex with endpoints ``hosts``?"""
        if spec.link is not None:
            return frozenset(spec.link) == frozenset(hosts)
        if self._topology is None:
            return True  # attach-only use: no graph to scope to, flap all
        fabric = {"rack", "pod", "core"}
        return all(end and self._topology.tier_of(end) in fabric
                   for end in hosts)

    def inject(self, migrator: "Migrator") -> "FaultInjector":
        """Attach to every link and host a :class:`Migrator` knows about.

        One injector per migrator: a second would replace the first's
        fault state on every link it gives a window, so injecting one
        into a migrator that already has one raises :class:`FaultError`."""
        if migrator.fault_injector not in (None, self):
            raise FaultError("faults already injected into this migrator")
        topology = self._topology = migrator.topology
        self._hosts.update(topology.hosts)
        for spec in self.plan.crashes:
            if spec.host not in self._hosts:
                raise FaultError(
                    f"crash names unknown host {spec.host!r}; "
                    f"known: {sorted(self._hosts)}")
        for (a, b), duplex in topology.links.items():
            self.attach(duplex, hosts=(a, b))
        for i, spec in enumerate(self.plan.crashes):
            if spec.at is not None:
                self._schedule_crash(spec, spec.at, ("c", i))
        migrator.fault_injector = self
        return self

    # -- activation --------------------------------------------------------

    def on_phase(self, name: str, at: Optional[float] = None) -> None:
        """Activate phase-triggered faults (called by the migration)."""
        now = self.env.now if at is None else at
        for key, spec in self._link_specs():
            if spec.phase == name:
                self._activate(spec, now + spec.offset, key)
        for i, spec in enumerate(self.plan.crashes):
            if spec.phase == name:
                self._schedule_crash(spec, now + spec.offset, ("c", i))

    def _link_specs(self) -> Iterator[tuple[tuple[str, int], _LinkSpec]]:
        """``(key, spec)`` for every link fault of the plan."""
        plan = self.plan
        for tag, specs in (("b", plan.blackouts), ("d", plan.degradations),
                           ("p", plan.partitions), ("f", plan.flaps)):
            for i, spec in enumerate(specs):
                yield (tag, i), spec

    def _activate(self, spec: _LinkSpec, start: float, key: tuple) -> None:
        """Fire one link fault: every attached link, one log entry, one
        ``fault:*`` instant.  Later calls with the same ``key`` are no-ops."""
        if key in self._fired:
            return
        if isinstance(spec, PartitionSpec) and self._topology is None:
            raise FaultError(
                "partition faults need a topology; use inject(migrator), "
                "not bare attach()")
        self._fired.add(key)
        self._active.append((spec, start))
        side = (self._partition_side(spec)
                if isinstance(spec, PartitionSpec) else None)
        for duplex, hosts in self._duplexes.values():
            self._apply(spec, start, duplex, hosts, side)
        if isinstance(spec, BlackoutSpec):
            kind, text = "blackout", (f"blackout[{spec.direction}] "
                                      f"{spec.duration:.3f}s")
            args = dict(direction=spec.direction, duration=spec.duration)
        elif isinstance(spec, DegradeSpec):
            kind, text = "degrade", (f"degrade[{spec.direction}] "
                                     f"x{spec.bandwidth_factor:.2f} "
                                     f"+{spec.extra_latency * 1e3:.1f}ms "
                                     f"{spec.duration:.3f}s")
            args = dict(direction=spec.direction, duration=spec.duration,
                        bandwidth_factor=spec.bandwidth_factor,
                        extra_latency=spec.extra_latency)
        elif isinstance(spec, PartitionSpec):
            ncut = len(self._topology.crossing_links(spec.isolate))
            kind, text = "partition", (f"partition {list(spec.isolate)} "
                                       f"{spec.duration:.3f}s "
                                       f"({ncut} links cut)")
            args = dict(isolate=list(spec.isolate), duration=spec.duration,
                        links_cut=ncut)
        else:
            kind, text = "flap", (f"flap {spec.link or 'fabric'} "
                                  f"x{spec.count} {spec.down_time:.3f}s "
                                  f"down / {spec.up_time:.3f}s up")
            args = dict(link=list(spec.link) if spec.link else None,
                        count=spec.count, down_time=spec.down_time,
                        up_time=spec.up_time)
        self.log.append((start, text))
        self.env.tracer.instant(f"fault:{kind}", category="fault",
                                start=start, **args)

    def _partition_side(self, spec: PartitionSpec) -> Callable[[str], bool]:
        """``name -> side`` of ``spec``'s cut, each name resolved once (see
        :meth:`~repro.net.topology.Topology.partition_side`)."""
        cut = frozenset(spec.isolate)
        sides: dict[str, bool] = {}

        def side(name: str) -> bool:
            known = sides.get(name)
            if known is None:
                known = sides[name] = self._topology.partition_side(name, cut)
            return known

        return side

    def _apply(self, spec: _LinkSpec, start: float, duplex: DuplexLink,
               hosts: tuple[str, str],
               side: Optional[Callable[[str], bool]] = None) -> None:
        """Install the windows of ``spec``, started at ``start``, on the
        directions of one duplex it covers.  A partition takes ``side``
        from :meth:`_partition_side`, shared across one activation."""
        if isinstance(spec, PartitionSpec):
            if side is None:
                side = self._partition_side(spec)
            if not (hosts[0] and hosts[1]) or side(hosts[0]) == side(hosts[1]):
                return
        elif isinstance(spec, FlapSpec) and not self._flap_covers(spec, hosts):
            return
        # A partition has no direction: it cuts both ways.
        direction = getattr(spec, "direction", "both")
        for link, tag in ((duplex.forward, "forward"),
                          (duplex.backward, "backward")):
            if not _direction_matches(direction, tag):
                continue
            state = self._state_for(link)
            if isinstance(spec, DegradeSpec):
                state.add_degradation(start, start + spec.duration,
                                      spec.bandwidth_factor,
                                      spec.extra_latency)
            elif isinstance(spec, FlapSpec):
                for lo, hi in spec.windows(start):
                    state.add_blackout(lo, hi)
            else:
                state.add_blackout(start, start + spec.duration)

    # -- crashes -----------------------------------------------------------

    def _host_links(self, host: str) -> list[Link]:
        """Both directions of every attached duplex touching ``host``."""
        return [link for duplex, hosts in self._duplexes.values()
                if host in hosts for link in (duplex.forward, duplex.backward)]

    def _schedule_crash(self, spec: CrashSpec, at: float, key: tuple) -> None:
        if key in self._fired:
            return
        self._fired.add(key)
        self.env.process(self._crash_later(spec, at),
                         name=f"fault:crash:{spec.host}")

    def _crash_later(self, spec: CrashSpec, at: float) -> Generator:
        if at > self.env.now:
            yield self.env.timeout(at - self.env.now)
        self._apply_crash(spec)
        return None

    def _apply_crash(self, spec: CrashSpec) -> None:
        host = self._hosts.get(spec.host)
        if host is not None:
            # Full lifecycle: suspend domains, drop in-memory bitmaps,
            # lose un-flushed journal tails (see Host.crash).
            host.crash()
        for link in self._host_links(spec.host):
            self._state_for(link).add_blackout(self.env.now, float("inf"),
                                               host=spec.host)
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
            host.restart()
        for link in self._host_links(spec.host):
            state = self._states.get(id(link))
            if state is not None:
                state.end_permanent_blackouts(self.env.now, spec.host)
        self.log.append((self.env.now, f"restart {spec.host}"))
        self.env.tracer.instant("fault:restart", category="fault",
                                host=spec.host)
        for listener in self.restart_listeners:
            listener(spec.host, self.env.now)
