"""Unit tests for the cluster Topology and multi-hop RoutedPath."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import MigrationError, NetworkError
from repro.net.topology import RoutedPath, Topology
from repro.sim import Environment
from repro.units import Gbps
from repro.vm import Host


@pytest.fixture
def env():
    return Environment()


def hosts(env, *names):
    return [Host(env, name) for name in names]


class TestConnect:
    def test_connect_returns_duplex(self, env):
        topo = Topology(env)
        a, b = hosts(env, "a", "b")
        link = topo.connect(a, b)
        assert topo.duplex_between(a, b) is link
        assert topo.duplex_between(b, a) is link
        assert topo.hosts == {"a": a, "b": b}

    def test_reconnect_same_parameters_returns_existing(self, env):
        topo = Topology(env)
        a, b = hosts(env, "a", "b")
        link = topo.connect(a, b, 1 * Gbps, 1e-4)
        assert topo.connect(a, b, 1 * Gbps, 1e-4) is link
        assert topo.connect(b, a, 1 * Gbps, 1e-4) is link
        assert len(topo.links) == 1

    def test_reconnect_conflicting_parameters_raises(self, env):
        topo = Topology(env)
        a, b = hosts(env, "a", "b")
        topo.connect(a, b, 1 * Gbps)
        with pytest.raises(MigrationError):
            topo.connect(a, b, 2 * Gbps)

    def test_self_connect_rejected(self, env):
        topo = Topology(env)
        (a,) = hosts(env, "a")
        with pytest.raises(MigrationError):
            topo.connect(a, a)

    def test_switch_nodes_are_not_hosts(self, env):
        topo = Topology(env)
        (a,) = hosts(env, "a")
        topo.connect(a, "switch")
        assert "switch" not in topo.hosts
        assert "a" in topo.hosts


class TestRouting:
    def test_direct_route(self, env):
        topo = Topology(env)
        a, b = hosts(env, "a", "b")
        topo.connect(a, b)
        assert topo.route(a, b) == ["a", "b"]

    def test_star_route_crosses_switch(self, env):
        topo = Topology(env)
        a, b, c = hosts(env, "a", "b", "c")
        for h in (a, b, c):
            topo.connect(h, "switch")
        assert topo.route(a, c) == ["a", "switch", "c"]

    def test_shortest_path_wins(self, env):
        topo = Topology(env)
        a, b = hosts(env, "a", "b")
        topo.connect(a, "long1")
        topo.connect("long1", "long2")
        topo.connect("long2", b)
        topo.connect(a, b)  # direct shortcut
        assert topo.route(a, b) == ["a", "b"]

    def test_tie_break_is_deterministic(self, env):
        # Diamond: a-b-d and a-c-d are both two hops; b sorts first.
        topo = Topology(env)
        a, d = hosts(env, "a", "d")
        topo.connect(a, "b")
        topo.connect(a, "c")
        topo.connect("b", d)
        topo.connect("c", d)
        assert topo.route(a, d) == ["a", "b", "d"]

    def test_no_route_raises(self, env):
        topo = Topology(env)
        a, b, c = hosts(env, "a", "b", "c")
        topo.connect(a, b)
        with pytest.raises(MigrationError):
            topo.route(a, c)

    def test_single_hop_endpoints_are_raw_links(self, env):
        topo = Topology(env)
        a, b = hosts(env, "a", "b")
        duplex = topo.connect(a, b)
        fwd, rev = topo.endpoints(a, b)
        assert fwd is duplex.forward and rev is duplex.backward
        fwd2, rev2 = topo.endpoints(b, a)
        assert fwd2 is duplex.backward and rev2 is duplex.forward

    def test_multi_hop_endpoints_are_routed_paths(self, env):
        topo = Topology(env)
        a, b = hosts(env, "a", "b")
        la = topo.connect(a, "sw")
        lb = topo.connect("sw", b)
        fwd, rev = topo.endpoints(a, b)
        assert isinstance(fwd, RoutedPath) and isinstance(rev, RoutedPath)
        assert fwd.hops == (la.forward, lb.forward)
        assert rev.hops == (lb.backward, la.backward)

    def test_duplex_links_between(self, env):
        topo = Topology(env)
        a, b = hosts(env, "a", "b")
        la = topo.connect(a, "sw")
        lb = topo.connect("sw", b)
        assert topo.duplex_links_between(a, b) == [la, lb]


class TestRoutedPath:
    def test_latency_and_bandwidth_aggregate(self, env):
        topo = Topology(env)
        a, b = hosts(env, "a", "b")
        topo.connect(a, "sw", 2 * Gbps, 1e-4)
        topo.connect("sw", b, 1 * Gbps, 3e-4)
        fwd, _ = topo.endpoints(a, b)
        assert fwd.effective_latency == pytest.approx(4e-4)
        assert fwd.bandwidth == 1 * Gbps
        assert fwd.transmission_time(1000) == pytest.approx(
            1000 / (2 * Gbps) + 1000 / (1 * Gbps))

    def test_transmit_charges_every_hop(self, env):
        topo = Topology(env)
        a, b = hosts(env, "a", "b")
        la = topo.connect(a, "sw")
        lb = topo.connect("sw", b)
        fwd, _ = topo.endpoints(a, b)

        def proc(env):
            yield from fwd.transmit(5000)

        env.run(until=env.process(proc(env)))
        assert la.forward.bytes_sent == 5000
        assert lb.forward.bytes_sent == 5000
        assert fwd.bytes_sent == 5000

    def test_empty_path_rejected(self, env):
        with pytest.raises(NetworkError):
            RoutedPath(())


class TestCachedViews:
    """Views cached until the next ``connect``/``tag`` answer like the
    same views of a topology built fresh from the final edges and tags."""

    HOSTS = ("h0", "h1", "h2")
    SWITCHES = ("s0", "s1", "s2", "core")
    NODES = HOSTS + SWITCHES
    ops = st.lists(st.one_of(
        st.tuples(st.just("connect"), st.sampled_from(NODES),
                  st.sampled_from(NODES)).filter(lambda op: op[1] != op[2]),
        st.tuples(st.just("tag"), st.sampled_from(NODES),
                  st.sampled_from(("host", "rack", "pod", "core")))),
        min_size=1, max_size=12)

    @staticmethod
    def views(topo, nodes):
        def route(a, b):
            try:
                return topo.route(a, b)
            except MigrationError:
                return None

        cuts = [frozenset(), frozenset({"s0"}), frozenset({"s1", "h2"})]
        return ([route(a, b) for a in nodes for b in nodes],
                [topo._parent_of(n) for n in nodes],
                [topo.partition_side(n, cut) for n in nodes for cut in cuts],
                [topo.rack_of(n) for n in nodes])

    @settings(max_examples=100, deadline=None)
    @given(ops=ops)
    def test_cached_views_equal_fresh_ones(self, ops):
        env = Environment()
        node = dict(zip(self.HOSTS, hosts(env, *self.HOSTS)))
        node.update((name, name) for name in self.SWITCHES)
        topo = Topology(env)
        done = []
        for op in ops:
            done.append(op)
            if op[0] == "connect":
                topo.connect(node[op[1]], node[op[2]])
            else:
                topo.tag(node[op[1]], op[2])
            fresh = Topology(env)
            for kind, a, b in done:
                if kind == "connect":
                    fresh.connect(node[a], node[b])
            for kind, a, b in done:
                if kind == "tag":
                    fresh.tag(node[a], b)
            assert self.views(topo, self.NODES) == self.views(fresh,
                                                              self.NODES)
