"""Nova-style host manager: one placement pipeline for the cluster.

Modelled on OpenStack nova's ``HostManager``/``HostState`` shape (the
``ironic_host_manager.py`` referenced in ROADMAP): the manager keeps a
per-host :class:`HostState` view (capacity, residents, in-flight
inbound migrations, link load, up/down/maintenance), runs every
candidate through a chain of pluggable **filters** (hard constraints),
then ranks the survivors with weighted **weighers** (soft preferences).

Filters and weighers live in small registries so experiments can add
their own::

    @register_filter("gpu")
    def gpu_filter(state, spec):
        return "gpu" in state.host.name

Both built-in registries cover the ISSUE set:

* filters — ``up`` (not crashed, not in maintenance), ``capacity``
  (planned load below the per-host domain capacity), ``affinity``
  (required rack and anti-affinity host exclusions), ``link-headroom``
  (uplink not saturated with in-flight migrations), ``healthy``
  (circuit breaker not open — see :mod:`repro.cluster.health`);
* weighers — ``least-loaded`` (fewest planned domains), ``locality``
  (same rack as the source: intra-rack moves stay off the core fabric),
  ``spread`` (fewest in-flight inbound migrations).

Selection is deterministic: scores tie-break on host name, so the same
cluster state always places the same way — a property the equivalence
harness (:mod:`tools.check_equivalence`) depends on.

An empty survivor set raises the typed
:class:`~repro.errors.NoValidHost` carrying a per-filter elimination
breakdown.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence, Union

from ..errors import MigrationError, NoValidHost

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.topology import Topology
    from ..vm.domain import Domain
    from ..vm.host import Host


class PlacementSpec:
    """What one placement request needs from its destination."""

    __slots__ = ("domain", "source", "required_rack", "anti_affinity")

    def __init__(
        self,
        domain: Optional["Domain"] = None,
        source: Optional["Host"] = None,
        required_rack: Optional[str] = None,
        anti_affinity: Iterable[str] = (),
    ) -> None:
        self.domain = domain
        #: The host the domain currently runs on (never a candidate).
        self.source = source if source is not None else (
            domain.host if domain is not None else None)
        #: Hard rack requirement (``affinity`` filter), or None.
        self.required_rack = required_rack
        #: Host names placement must avoid (``affinity`` filter).
        self.anti_affinity = frozenset(anti_affinity)

    @property
    def source_rack(self) -> Optional[str]:
        if self.source is None:
            return None
        return getattr(self.source, "_rack_hint", None)


class HostState:
    """The manager's view of one host.

    Built once per topology change (see :meth:`HostManager.refresh`).
    Residents, up and maintenance are read live from the host, and the
    ``inbound`` mapping shared with the scheduler keeps planned load
    current, so a cached state never goes stale between rebuilds.
    """

    __slots__ = ("name", "host", "rack", "capacity", "_inbound",
                 "link_inflight")

    def __init__(self, host: "Host", rack: Optional[str],
                 capacity: Optional[int], inbound: dict,
                 link_inflight: int = 0) -> None:
        self.name = host.name
        self.host = host
        #: Top-of-rack switch name, or None outside rack wirings.
        self.rack = rack
        #: Max domains this host may hold (None = unlimited).
        self.capacity = capacity
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


#: A filter keeps (True) or eliminates (False) a candidate.
HostFilter = Callable[[HostState, PlacementSpec], bool]
#: A weigher scores a surviving candidate (higher is better).
HostWeigher = Callable[[HostState, PlacementSpec], float]

FILTERS: dict[str, HostFilter] = {}
WEIGHERS: dict[str, HostWeigher] = {}


def register_filter(name: str) -> Callable[[HostFilter], HostFilter]:
    """Class/function decorator adding a filter to the registry."""
    def deco(fn: HostFilter) -> HostFilter:
        FILTERS[name] = fn
        return fn
    return deco


def register_weigher(name: str) -> Callable[[HostWeigher], HostWeigher]:
    def deco(fn: HostWeigher) -> HostWeigher:
        WEIGHERS[name] = fn
        return fn
    return deco


# -- built-in filters --------------------------------------------------------

@register_filter("up")
def up_filter(state: HostState, spec: PlacementSpec) -> bool:
    """Crashed hosts and hosts inside a maintenance window are never
    valid destinations (the mid-churn crash bugfix lives here)."""
    return state.up and not state.maintenance


@register_filter("capacity")
def capacity_filter(state: HostState, spec: PlacementSpec) -> bool:
    """Planned load (residents + inbound) must stay below capacity."""
    if state.capacity is None:
        return True
    return state.planned_load < state.capacity


@register_filter("affinity")
def affinity_filter(state: HostState, spec: PlacementSpec) -> bool:
    """Hard rack requirement and anti-affinity host exclusions."""
    if state.name in spec.anti_affinity:
        return False
    if spec.required_rack is not None and state.rack != spec.required_rack:
        return False
    return True


@register_filter("link-headroom")
def link_headroom_filter(state: HostState, spec: PlacementSpec) -> bool:
    """Registry anchor for the uplink-saturation filter.

    The ceiling is per-manager state (``HostManager.link_headroom``), so
    :meth:`HostManager._passes` special-cases this name; the registry
    entry exists so the name validates and custom managers can override.
    """
    return True


@register_filter("healthy")
def healthy_filter(state: HostState, spec: PlacementSpec) -> bool:
    """Registry anchor for the circuit-breaker health filter.

    The breakers live on the manager's
    :class:`~repro.cluster.health.HealthMonitor` (``HostManager.health``),
    so :meth:`HostManager._passes` special-cases this name; without a
    monitor the filter keeps everything (default-off, equivalence-safe).
    """
    return True


# -- built-in weighers -------------------------------------------------------

@register_weigher("least-loaded")
def least_loaded_weigher(state: HostState, spec: PlacementSpec) -> float:
    """Prefer the fewest planned domains (nova's RAM weigher analogue)."""
    return -float(state.planned_load)


@register_weigher("locality")
def locality_weigher(state: HostState, spec: PlacementSpec) -> float:
    """Prefer destinations in the source's rack: intra-rack migrations
    take two hops and never touch the core fabric."""
    if spec.source is None or state.rack is None:
        return 0.0
    source_rack = spec.source_rack
    return 1.0 if source_rack is not None and state.rack == source_rack \
        else 0.0


@register_weigher("spread")
def spread_weigher(state: HostState, spec: PlacementSpec) -> float:
    """Prefer hosts with the fewest in-flight inbound migrations, so a
    burst of placements fans out instead of convoying on one target."""
    return -float(state.inbound)


class HostManager:
    """Tracks per-host state and answers placement queries.

    ``filters`` is a sequence of registry names (hard constraints,
    applied in order); ``weighers`` a sequence of ``name`` or
    ``(name, weight)`` entries whose weighted sum ranks the survivors.
    ``inbound`` may be a live host-name→count mapping shared with a
    scheduler so planned load stays current between refreshes.
    """

    DEFAULT_FILTERS = ("up", "capacity", "affinity")
    DEFAULT_WEIGHERS = (("least-loaded", 1.0),)

    def __init__(
        self,
        topology: "Topology",
        filters: Sequence[str] = DEFAULT_FILTERS,
        weighers: Sequence[Union[str, tuple[str, float]]] = DEFAULT_WEIGHERS,
        capacity: Optional[int] = None,
        inbound: Optional[dict] = None,
        link_headroom: Optional[int] = None,
        health: Optional["object"] = None,
    ) -> None:
        self.topology = topology
        self.filter_names = tuple(filters)
        for name in self.filter_names:
            if name not in FILTERS:
                raise MigrationError(
                    f"unknown host filter {name!r} "
                    f"(registered: {sorted(FILTERS)})")
        self.weigher_spec: list[tuple[str, float]] = []
        for entry in weighers:
            name, weight = entry if isinstance(entry, tuple) else (entry, 1.0)
            if name not in WEIGHERS:
                raise MigrationError(
                    f"unknown host weigher {name!r} "
                    f"(registered: {sorted(WEIGHERS)})")
            self.weigher_spec.append((name, float(weight)))
        #: Uniform per-host domain capacity (None = unlimited).
        self.capacity = capacity
        #: Reject hosts whose uplink holds >= this many in-flight
        #: migrations (None disables the ``link-headroom`` filter's
        #: effect even when listed).
        self.link_headroom = link_headroom
        #: :class:`~repro.cluster.health.HealthMonitor` backing the
        #: ``healthy`` filter (None disables it even when listed).
        self.health = health
        self._inbound = inbound if inbound is not None else {}
        #: host name -> in-flight migrations using its uplink, maintained
        #: by the scheduler via :meth:`note_link`.
        self._link_inflight: dict[str, int] = {}
        self._states: dict[str, HostState] = {}
        #: The states in host-name order (what the pipeline walks).
        self._ordered: list[HostState] = []
        #: What the states were built from: topology revision, inbound
        #: map and capacity.  Any of them moving forces a rebuild.
        self._built_for: tuple = ()
        self.refresh()

    # -- state maintenance -------------------------------------------------

    def refresh(self) -> None:
        """Rebuild every :class:`HostState` from the live topology.

        Placement calls this itself whenever the topology changed
        (:attr:`Topology.revision <repro.net.topology.Topology.revision>`),
        the inbound map was rewired or :attr:`capacity` changed; the
        per-host fields that move between those events are read live.
        """
        topology = self.topology
        states = {}
        for name in sorted(topology.hosts):
            host = topology.hosts[name]
            # Surrogate stand-ins for cross-shard destinations carry the
            # remote host's name but are not real capacity here.
            if getattr(host, "is_surrogate", False):
                continue
            rack = topology.rack_of(name)
            # Cache the rack on the host so PlacementSpec.source_rack is
            # O(1) even for hosts the manager hasn't seen as candidates.
            host._rack_hint = rack
            states[name] = HostState(
                host, rack, self.capacity, self._inbound,
                link_inflight=self._link_inflight.get(name, 0))
        self._states = states
        self._ordered = list(states.values())
        self._built_for = (topology.revision, self._inbound, self.capacity)

    def _current(self) -> list[HostState]:
        """The host states in name order, rebuilt first if stale."""
        built = self._built_for
        if (built[0] != self.topology.revision
                or built[1] is not self._inbound
                or built[2] != self.capacity):
            self.refresh()
        return self._ordered

    def states(self) -> list[HostState]:
        """Current host states, sorted by host name."""
        return list(self._current())

    def state_of(self, host: Union[str, "Host"]) -> HostState:
        name = host if isinstance(host, str) else host.name
        self._current()
        try:
            return self._states[name]
        except KeyError:
            raise MigrationError(f"no host {name!r} in manager") from None

    def note_link(self, host: Union[str, "Host"], delta: int) -> None:
        """Scheduler hook: a migration started (+1) or ended (-1) on this
        host's uplink."""
        name = host if isinstance(host, str) else host.name
        self._link_inflight[name] = self._link_inflight.get(name, 0) + delta
        state = self._states.get(name)
        if state is not None:
            state.link_inflight = self._link_inflight[name]

    # -- the pipeline ------------------------------------------------------

    def _filter_chain(self) -> list[tuple[str, HostFilter]]:
        """``(name, filter)`` for each listed filter, in order.

        ``link-headroom`` and ``healthy`` are registry stubs whose real
        check lives on the manager; they drop out of the chain while the
        manager leaves them disabled (they could not eliminate anything).
        """
        chain = []
        for name in self.filter_names:
            if name == "link-headroom":
                ceiling = self.link_headroom
                if ceiling is None:
                    continue
                chain.append((name, lambda state, spec:
                              state.link_inflight < ceiling))
            elif name == "healthy":
                health = self.health
                if health is None:
                    continue
                chain.append((name, lambda state, spec:
                              health.healthy(state.name)))
            else:
                chain.append((name, FILTERS[name]))
        return chain

    def filter_hosts(self, spec: PlacementSpec,
                     exclude: Iterable[str] = ()) -> list[HostState]:
        """Hard-constraint pass: states surviving every filter, sorted by
        name.  Raises :class:`NoValidHost` when nothing survives."""
        excluded = set(exclude)
        if spec.source is not None:
            excluded.add(spec.source.name)
        chain = self._filter_chain()
        survivors = []
        dropped: dict[str, int] = {}
        for state in self._current():
            if state.name in excluded:
                continue
            for name, keep in chain:
                if not keep(state, spec):
                    dropped[name] = dropped.get(name, 0) + 1
                    break
            else:
                survivors.append(state)
        if not survivors:
            # Breakdown in filter order, as the chain applies them.
            eliminated = {name: dropped[name] for name, _ in chain
                          if name in dropped}
            detail = ", ".join(f"{k}:{v}" for k, v in eliminated.items())
            raise NoValidHost(
                f"no valid host for "
                f"{spec.domain.name if spec.domain else 'placement'} "
                f"(eliminated — {detail or 'no candidates offered'})",
                eliminated=eliminated)
        return survivors

    def _score(self, state: HostState, spec: PlacementSpec) -> float:
        score = 0.0
        for name, weight in self.weigher_spec:
            score += weight * WEIGHERS[name](state, spec)
        return score

    def select(self, spec: PlacementSpec,
               exclude: Iterable[str] = ()) -> "Host":
        """Run the full pipeline and return the winning host: the best
        weighted score, ties to the lowest host name."""
        best, best_score = None, 0.0
        # Survivors come in name order, so keeping the first of equal
        # scores is the name tie-break.
        for state in self.filter_hosts(spec, exclude=exclude):
            score = self._score(state, spec)
            if best is None or score > best_score:
                best, best_score = state, score
        return best.host

    def __repr__(self) -> str:
        return (f"<HostManager {len(self._states)} hosts "
                f"filters={list(self.filter_names)} "
                f"weighers={self.weigher_spec}>")
