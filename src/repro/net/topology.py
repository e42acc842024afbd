"""Cluster network topology: hosts, switches, links, multi-hop routes.

The paper's testbed is a pair of machines on one switched LAN, but the
ROADMAP's cluster experiments need rack/star topologies where several
concurrent migrations share links.  A :class:`Topology` is an undirected
graph whose nodes are host names (plus plain-string switch names) and
whose edges are full-duplex :class:`~repro.net.link.DuplexLink`\\ s.

Routing is shortest-path BFS with a deterministic (lexicographic)
tie-break.  A single-hop route hands back the raw directional
:class:`~repro.net.link.Link` objects — point-to-point behaviour,
timing, and fault injection stay byte-identical to the old direct-link
table.  A multi-hop route is wrapped in a :class:`RoutedPath`, a
Link-alike that transmits store-and-forward across every hop, so two
migrations whose routes share a physical link contend for its wire and
every traversed link's ``bytes_sent`` grows by the full message size —
per-link byte accounting stays conserved.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Generator, Optional, Union

from ..errors import MigrationError, NetworkError
from ..units import Gbps
from .link import DuplexLink, Link

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Environment
    from ..vm.host import Host

#: Topology nodes are referred to by name; hosts may be passed directly.
NodeRef = Union[str, "Host"]

#: Tier tags recognised by :meth:`Topology.tag`.  ``host`` nodes are
#: leaves, ``rack`` nodes are top-of-rack switches, ``core``/``pod``
#: nodes form the inter-rack fabric.
TIERS = ("host", "rack", "pod", "core")

#: Tiers whose mutual links form the inter-rack fabric (the lookahead
#: bound for sharded simulation is the fastest of these links).
_FABRIC_TIERS = frozenset({"rack", "pod", "core"})


def _node_name(node: NodeRef) -> str:
    return node if isinstance(node, str) else node.name


class RoutedPath:
    """A Link-alike that carries traffic across several physical links.

    Implements the two members a :class:`~repro.net.channel.Channel`
    uses — :meth:`transmit` and :attr:`effective_latency` — plus the
    accounting surface tests use.  Transmission is store-and-forward:
    each hop's wire is held in sequence, so a message contends with every
    other flow crossing any of its hops, and each hop's ``bytes_sent``
    advances by the full message size.
    """

    def __init__(self, hops: tuple[Link, ...], name: Optional[str] = None
                 ) -> None:
        if not hops:
            raise NetworkError("a routed path needs at least one hop")
        self.hops = tuple(hops)
        self.env = self.hops[0].env
        self.name = name or "+".join(hop.name for hop in self.hops)
        #: ``id(hop)`` -> bytes that cleared that hop in sends which then
        #: died on a later hop (blackout timeout).  The conservation
        #: audit needs these: upstream wires really carried the bytes,
        #: but the channel never booked the failed send.
        self.aborted_by_hop: dict[int, int] = {}

    @property
    def bandwidth(self) -> float:
        """Bottleneck line rate along the path."""
        return min(hop.bandwidth for hop in self.hops)

    @property
    def latency(self) -> float:
        return sum(hop.latency for hop in self.hops)

    @property
    def effective_latency(self) -> float:
        """Propagation latency summed over the hops (with degradations)."""
        return sum(hop.effective_latency for hop in self.hops)

    @property
    def bytes_sent(self) -> int:
        """Bytes this path pushed through its *first* hop (= end-to-end
        bytes entering the path; every hop sees the same amount)."""
        return self.hops[0].bytes_sent

    def transmission_time(self, nbytes: int) -> float:
        return sum(hop.transmission_time(nbytes) for hop in self.hops)

    def transmit(self, nbytes: int, priority: int = 0) -> Generator:
        """Store-and-forward across every hop; ``yield from`` in a process."""
        for i, hop in enumerate(self.hops):
            try:
                yield from hop.transmit(nbytes, priority=priority)
            except NetworkError:
                for done in self.hops[:i]:
                    self.aborted_by_hop[id(done)] = (
                        self.aborted_by_hop.get(id(done), 0) + nbytes)
                raise

    @property
    def queue_length(self) -> int:
        return max(hop.queue_length for hop in self.hops)

    def __repr__(self) -> str:
        return f"<RoutedPath {self.name!r} hops={len(self.hops)}>"


class Topology:
    """Undirected graph of hosts/switches joined by duplex links."""

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: (name_a, name_b) -> DuplexLink, keyed in insertion orientation
        #: (forward = a->b).
        self.links: dict[tuple[str, str], DuplexLink] = {}
        #: host name -> Host for every *host* node (switches are only
        #: strings and do not appear here).
        self.hosts: dict[str, "Host"] = {}
        self._adjacency: dict[str, set[str]] = {}
        #: node name -> tier tag ("host"/"rack"/"pod"/"core").  Untagged
        #: nodes default to "host" for Host objects, "rack" for strings
        #: (historic single-switch topologies behave as one big rack).
        self.tiers: dict[str, str] = {}
        #: Cached :meth:`lookahead` result; ``None`` = stale.  Invalidated
        #: by every topology mutation (:meth:`connect` / :meth:`tag`) —
        #: the sharded drain loop queries the bound per window, and the
        #: fabric scan is O(links) each time without the cache.
        self._lookahead_cache: "float | None" = None
        #: Cached :meth:`rack_of` answers, dropped with the lookahead.
        self._rack_cache: dict[str, Optional[str]] = {}
        #: Bumped by every mutation; views derived from the topology (the
        #: HostManager's host states) rebuild when it moves.
        self.revision = 0

    def _changed(self) -> None:
        """Drop every cached view after a mutation."""
        self._lookahead_cache = None
        self._rack_cache.clear()
        self.revision += 1

    # -- construction ------------------------------------------------------

    def connect(self, a: NodeRef, b: NodeRef, bandwidth: float = 1 * Gbps,
                latency: float = 100e-6) -> DuplexLink:
        """Join two nodes with a full-duplex link.

        Nodes are :class:`~repro.vm.host.Host` objects or plain strings
        (switches / routers).  Connecting an already-connected pair
        returns the existing link when the parameters match, and raises
        :class:`~repro.errors.MigrationError` when they conflict — it
        never silently replaces a link that may carry in-flight traffic.
        """
        name_a, name_b = _node_name(a), _node_name(b)
        if name_a == name_b:
            raise MigrationError(f"cannot connect {name_a!r} to itself")
        for node, name in ((a, name_a), (b, name_b)):
            if not isinstance(node, str) and self.hosts.get(name) is not node:
                self.hosts[name] = node
                self._changed()
        existing = (self.links.get((name_a, name_b))
                    or self.links.get((name_b, name_a)))
        if existing is not None:
            if (existing.forward.bandwidth != float(bandwidth)
                    or existing.forward.latency != float(latency)):
                raise MigrationError(
                    f"{name_a!r} and {name_b!r} are already connected with "
                    f"different parameters (existing: "
                    f"{existing.forward.bandwidth:g} B/s "
                    f"/ {existing.forward.latency:g} s)")
            return existing
        link = DuplexLink(self.env, bandwidth, latency,
                          name=f"{name_a}<->{name_b}")
        self.links[(name_a, name_b)] = link
        self._adjacency.setdefault(name_a, set()).add(name_b)
        self._adjacency.setdefault(name_b, set()).add(name_a)
        self._changed()
        return link

    def duplex_between(self, a: NodeRef, b: NodeRef
                       ) -> Optional[DuplexLink]:
        """The direct duplex link between two nodes, if one exists."""
        name_a, name_b = _node_name(a), _node_name(b)
        return (self.links.get((name_a, name_b))
                or self.links.get((name_b, name_a)))

    def _directed_link(self, a: str, b: str) -> Link:
        """The a→b directional link of the duplex edge between a and b."""
        link = self.links.get((a, b))
        if link is not None:
            return link.forward
        link = self.links.get((b, a))
        if link is not None:
            return link.backward
        raise MigrationError(f"no link between {a!r} and {b!r}")

    # -- tiers / sharding --------------------------------------------------

    def tag(self, node: NodeRef, tier: str) -> None:
        """Assign ``node`` to a tier (see :data:`TIERS`).

        Tier tags drive the rack partition used by
        :mod:`repro.sim.sharded` and the :meth:`lookahead` bound; they do
        not affect routing.
        """
        if tier not in TIERS:
            raise MigrationError(
                f"unknown tier {tier!r} (expected one of {TIERS})")
        self.tiers[_node_name(node)] = tier
        self._changed()

    def tier_of(self, node: NodeRef) -> str:
        """The node's tier tag (defaulted — see :attr:`tiers`)."""
        name = _node_name(node)
        tier = self.tiers.get(name)
        if tier is not None:
            return tier
        return "host" if name in self.hosts else "rack"

    def rack_of(self, host: NodeRef) -> Optional[str]:
        """The rack-tier switch this host hangs off, or None.

        Deterministic: a host wired to several rack switches reports the
        lexicographically first.  Cached until the next :meth:`connect`
        or :meth:`tag`.
        """
        name = _node_name(host)
        if name not in self._rack_cache:
            self._rack_cache[name] = min(
                (neighbour for neighbour in self._adjacency.get(name, ())
                 if self.tier_of(neighbour) == "rack"), default=None)
        return self._rack_cache[name]

    def racks(self) -> dict[str, list[str]]:
        """rack switch name -> sorted host names wired to it."""
        out: dict[str, list[str]] = {}
        for name in sorted(self.hosts):
            rack = self.rack_of(name)
            if rack is not None:
                out.setdefault(rack, []).append(name)
        return out

    def _parent_of(self, name: str) -> Optional[str]:
        """The next switch up the tier ladder, or None at the top.

        Deterministic: among equally-ranked neighbours the
        lexicographically first wins (same rule as :meth:`rack_of`).
        """
        ladder = {"host": ("rack", "pod", "core"),
                  "rack": ("pod", "core"),
                  "pod": ("core",),
                  "core": ()}
        for want in ladder[self.tier_of(name)]:
            for neighbour in sorted(self._adjacency.get(name, ())):
                if self.tier_of(neighbour) == want:
                    return neighbour
        return None

    def partition_side(self, node: NodeRef, isolate: frozenset) -> bool:
        """True when ``node`` sits on the isolated side of a partition.

        A node is isolated when its name — or, transitively, the name of
        any switch on its path up the tier ladder — appears in
        ``isolate``.  Listing ``rack1`` therefore isolates the switch
        *and* every host hanging off it in one stroke.
        """
        name = _node_name(node)
        seen: set[str] = set()
        while name is not None and name not in seen:
            if name in isolate:
                return True
            seen.add(name)
            name = self._parent_of(name)
        return False

    def crossing_links(self, isolate) -> list[tuple[tuple[str, str],
                                                    DuplexLink]]:
        """``((a, b), duplex)`` for every link crossing the partition cut
        described by ``isolate`` (see :meth:`partition_side`), in
        deterministic insertion order."""
        cut = frozenset(isolate)
        side: dict[str, bool] = {}

        def of(name: str) -> bool:
            cached = side.get(name)
            if cached is None:
                cached = side[name] = self.partition_side(name, cut)
            return cached

        return [(key, duplex) for key, duplex in self.links.items()
                if of(key[0]) != of(key[1])]

    def inter_rack_links(self) -> list[DuplexLink]:
        """Duplex links whose both endpoints sit in the inter-rack fabric
        (rack/pod/core tiers), in deterministic insertion order."""
        return [link for (a, b), link in self.links.items()
                if self.tier_of(a) in _FABRIC_TIERS
                and self.tier_of(b) in _FABRIC_TIERS]

    def lookahead(self) -> float:
        """Conservative-synchronization bound for sharded simulation.

        Any interaction between hosts in *different* racks must cross at
        least one fabric link, so no shard can affect another sooner than
        the fastest such link's one-way propagation latency.  Per-rack
        engines may therefore safely advance ``lookahead()`` past the
        global minimum event time (see :mod:`repro.sim.sharded`).

        The bound is cached until the next :meth:`connect` or
        :meth:`tag` — link latencies are construction-time constants, so
        only topology mutation can change it.
        """
        cached = self._lookahead_cache
        if cached is not None:
            return cached
        fabric = self.inter_rack_links()
        if not fabric:
            raise MigrationError(
                "topology has no inter-rack fabric links; tag rack/core "
                "tiers with Topology.tag() before sharding")
        bound = min(link.forward.latency for link in fabric)
        self._lookahead_cache = bound
        return bound

    # -- routing -----------------------------------------------------------

    def route(self, src: NodeRef, dst: NodeRef) -> list[str]:
        """Shortest node path src → dst (inclusive), deterministic.

        BFS over the undirected graph; neighbours are explored in sorted
        order so equal-length routes always resolve the same way.
        Raises :class:`~repro.errors.MigrationError` when no path exists.
        """
        start, goal = _node_name(src), _node_name(dst)
        if start == goal:
            return [start]
        if start not in self._adjacency or goal not in self._adjacency:
            raise MigrationError(
                f"no route between {start!r} and {goal!r}")
        parent: dict[str, str] = {start: start}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for neighbour in sorted(self._adjacency.get(node, ())):
                if neighbour in parent:
                    continue
                parent[neighbour] = node
                if neighbour == goal:
                    path = [goal]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                frontier.append(neighbour)
        raise MigrationError(f"no route between {start!r} and {goal!r}")

    def path_links(self, src: NodeRef, dst: NodeRef
                   ) -> tuple[list[Link], list[Link]]:
        """(forward hop links, reverse hop links) along the src→dst route."""
        nodes = self.route(src, dst)
        fwd = [self._directed_link(a, b)
               for a, b in zip(nodes, nodes[1:])]
        rev = [self._directed_link(b, a)
               for a, b in zip(nodes, nodes[1:])]
        rev.reverse()
        return fwd, rev

    def endpoints(self, src: NodeRef, dst: NodeRef
                  ) -> tuple[Union[Link, RoutedPath],
                             Union[Link, RoutedPath]]:
        """``(data_path, reverse_path)`` for a migration src → dst.

        Single-hop routes return the raw directional :class:`Link`
        objects (identical behaviour to a direct connection); multi-hop
        routes are wrapped in :class:`RoutedPath`.
        """
        fwd, rev = self.path_links(src, dst)
        if len(fwd) == 1:
            return fwd[0], rev[0]
        return RoutedPath(tuple(fwd)), RoutedPath(tuple(rev))

    def duplex_links_between(self, src: NodeRef, dst: NodeRef
                             ) -> list[DuplexLink]:
        """The duplex links a src→dst migration will traverse, in order."""
        nodes = self.route(src, dst)
        out = []
        for a, b in zip(nodes, nodes[1:]):
            link = self.duplex_between(a, b)
            assert link is not None
            out.append(link)
        return out

    def __repr__(self) -> str:
        return (f"<Topology {len(self.hosts)} hosts, "
                f"{len(self.links)} links>")
