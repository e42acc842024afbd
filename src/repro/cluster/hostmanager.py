"""Nova-style host manager: one placement pass for the cluster.

Modelled on OpenStack nova's ``HostManager``/``HostState`` shape (the
``ironic_host_manager.py`` referenced in ROADMAP): the manager keeps a
per-host :class:`HostState` view (residents, in-flight inbound
migrations, link load, up/down/maintenance) and answers placement
queries with one fixed pass.

Filters (hard constraints), checked in this order:

* ``up`` — not crashed and not in a maintenance window;
* ``capacity`` — planned load (residents + inbound) below
  :attr:`HostManager.capacity`, when set;
* ``link-headroom`` — the host's uplink carries fewer than
  :attr:`HostManager.link_headroom` in-flight migrations, when set;
* ``healthy`` — the host's circuit breaker is closed, or half-open
  with its one probe not yet taken, when a
  :class:`~repro.cluster.health.HealthMonitor` is set.  The pass only
  asks; the scheduler takes the probe for the host it sends a job to.

Each survivor then scores::

    0.0 + -planned_load + locality * same_rack + spread * -inbound

``same_rack`` is 1 when the candidate shares the source's rack
(intra-rack moves take two hops and never touch the core fabric), and
``inbound`` counts the migrations already headed to the candidate (so a
burst of placements fans out instead of convoying on one target).  Both
weights default to 0, which leaves plain least-loaded.

Selection is deterministic: scores tie-break on host name, so the same
cluster state always places the same way — a property the equivalence
harness (:mod:`tools.check_equivalence`) depends on.

An empty survivor set raises the typed
:class:`~repro.errors.NoValidHost` carrying a per-filter elimination
breakdown, in filter order.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Union

from ..errors import NoValidHost

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.topology import Topology
    from ..vm.domain import Domain
    from ..vm.host import Host
    from .health import HealthMonitor


class HostState:
    """The manager's view of one host.

    Built once per topology change (see :meth:`HostManager.refresh`).
    Residents, up and maintenance are read live from the host, and the
    ``inbound`` mapping shared with the scheduler keeps planned load
    current, so a cached state never goes stale between rebuilds.
    """

    __slots__ = ("name", "host", "rack", "_inbound", "link_inflight")

    def __init__(self, host: "Host", rack: Optional[str], inbound: dict,
                 link_inflight: int = 0) -> None:
        self.name = host.name
        self.host = host
        #: Top-of-rack switch name, or None outside rack wirings.
        self.rack = rack
        self._inbound = inbound
        #: Migrations currently holding a slot on this host's uplink.
        self.link_inflight = link_inflight

    @property
    def resident(self) -> int:
        """Domains currently attached to the host."""
        return self.host.domain_count

    @property
    def up(self) -> bool:
        return not self.host.crashed

    @property
    def maintenance(self) -> bool:
        return self.host.maintenance

    @property
    def inbound(self) -> int:
        """Migrations scheduled toward this host but not yet finished."""
        return self._inbound.get(self.name, 0)

    @property
    def planned_load(self) -> int:
        """Residents plus inbound — the load placement reasons about."""
        return self.host.domain_count + self._inbound.get(self.name, 0)

    def __repr__(self) -> str:
        flags = "".join(("!" if not self.up else "",
                         "m" if self.maintenance else ""))
        return (f"<HostState {self.name}{flags} load={self.resident}"
                f"+{self.inbound} rack={self.rack}>")


class HostManager:
    """Tracks per-host state and answers placement queries.

    ``capacity``, ``link_headroom`` and ``health`` switch on their
    filters; ``locality`` and ``spread`` weight the two score terms
    beside least-loaded.  ``inbound`` may be a live host-name→count
    mapping shared with a scheduler so planned load stays current
    between refreshes.
    """

    def __init__(
        self,
        topology: "Topology",
        capacity: Optional[int] = None,
        inbound: Optional[dict] = None,
        link_headroom: Optional[int] = None,
        health: Optional["HealthMonitor"] = None,
        locality: float = 0.0,
        spread: float = 0.0,
    ) -> None:
        self.topology = topology
        #: Uniform per-host domain capacity (None = unlimited).
        self.capacity = capacity
        #: Reject hosts whose uplink holds >= this many in-flight
        #: migrations (None = no ``link-headroom`` filter).
        self.link_headroom = link_headroom
        #: Circuit breakers backing the ``healthy`` filter (None = off).
        self.health = health
        #: Score bonus for a candidate in the source's rack.
        self.locality = float(locality)
        #: Score penalty per in-flight inbound migration.
        self.spread = float(spread)
        self._inbound = inbound if inbound is not None else {}
        #: host name -> in-flight migrations using its uplink, maintained
        #: by the scheduler via :meth:`note_link`.
        self._link_inflight: dict[str, int] = {}
        self._states: dict[str, HostState] = {}
        #: The states in host-name order (what the pass walks).
        self._ordered: list[HostState] = []
        #: What the states were built from: topology revision and
        #: inbound map.  Either moving forces a rebuild.
        self._built_for: tuple = ()
        self.refresh()

    # -- state maintenance -------------------------------------------------

    def refresh(self) -> None:
        """Rebuild every :class:`HostState` from the live topology.

        Placement calls this itself whenever the topology changed
        (:attr:`Topology.revision <repro.net.topology.Topology.revision>`)
        or the inbound map was rewired; the per-host fields that move
        between those events are read live.
        """
        topology = self.topology
        states = {}
        for name in sorted(topology.hosts):
            host = topology.hosts[name]
            # Surrogate stand-ins for cross-shard destinations carry the
            # remote host's name but are not real capacity here.
            if getattr(host, "is_surrogate", False):
                continue
            states[name] = HostState(
                host, topology.rack_of(name), self._inbound,
                link_inflight=self._link_inflight.get(name, 0))
        self._states = states
        self._ordered = list(states.values())
        self._built_for = (topology.revision, self._inbound)

    def _current(self) -> list[HostState]:
        """The host states in name order, rebuilt first if stale."""
        built = self._built_for
        if (built[0] != self.topology.revision
                or built[1] is not self._inbound):
            self.refresh()
        return self._ordered

    def states(self) -> list[HostState]:
        """Current host states, sorted by host name."""
        return list(self._current())

    def note_link(self, host: Union[str, "Host"], delta: int) -> None:
        """Scheduler hook: a migration started (+1) or ended (-1) on this
        host's uplink."""
        name = host if isinstance(host, str) else host.name
        self._link_inflight[name] = self._link_inflight.get(name, 0) + delta
        state = self._states.get(name)
        if state is not None:
            state.link_inflight = self._link_inflight[name]

    # -- the placement pass ------------------------------------------------

    def filter_hosts(self, domain: Optional["Domain"] = None,
                     exclude: Iterable[str] = ()) -> list[HostState]:
        """Hard-constraint pass: states surviving every filter, sorted by
        name.  The domain's current host is never a candidate.  Raises
        :class:`NoValidHost` when nothing survives."""
        excluded = set(exclude)
        if domain is not None and domain.host is not None:
            excluded.add(domain.host.name)
        capacity = self.capacity
        headroom = self.link_headroom
        health = self.health
        survivors = []
        # Per-filter eliminations, in filter order.
        down = full = busy = sick = 0
        for state in self._current():
            name = state.name
            if name in excluded:
                continue
            host = state.host
            if host.crashed or host.maintenance:
                down += 1
            elif capacity is not None and state.planned_load >= capacity:
                full += 1
            elif headroom is not None and state.link_inflight >= headroom:
                busy += 1
            elif health is not None and not health.healthy(name):
                sick += 1
            else:
                survivors.append(state)
        if not survivors:
            eliminated = {key: count for key, count in (
                ("up", down), ("capacity", full), ("link-headroom", busy),
                ("healthy", sick)) if count}
            detail = ", ".join(f"{k}:{v}" for k, v in eliminated.items())
            raise NoValidHost(
                f"no valid host for "
                f"{domain.name if domain else 'placement'} "
                f"(eliminated — {detail or 'no candidates offered'})",
                eliminated=eliminated)
        return survivors

    def select(self, domain: Optional["Domain"] = None,
               exclude: Iterable[str] = ()) -> "Host":
        """Filter, score and return the winning host: the best score,
        ties to the lowest host name."""
        survivors = self.filter_hosts(domain, exclude)
        locality, spread = self.locality, self.spread
        source_rack = None
        if locality and domain is not None and domain.host is not None:
            source_rack = self.topology.rack_of(domain.host.name)
        best, best_score = None, 0.0
        # Survivors come in name order, so keeping the first of equal
        # scores is the name tie-break.
        for state in survivors:
            score = 0.0 + -state.planned_load
            if source_rack is not None and state.rack == source_rack:
                score += locality
            if spread:
                score += spread * -state.inbound
            if best is None or score > best_score:
                best, best_score = state, score
        return best.host

    def __repr__(self) -> str:
        return (f"<HostManager {len(self._states)} hosts "
                f"capacity={self.capacity} "
                f"link_headroom={self.link_headroom} "
                f"health={'on' if self.health is not None else 'off'} "
                f"locality={self.locality} spread={self.spread}>")
