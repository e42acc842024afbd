"""HostManager keeps its HostState objects across placements.

The states, their racks and their name order are built once per topology
change; residents, up and maintenance are read live.  These tests drive a
manager through random cluster churn and check, after every step, that it
answers exactly like a manager built from scratch on the same topology.
"""

from hypothesis import given, settings, strategies as st

from repro.cluster import (ClusterScheduler, HealthMonitor, HostManager,
                           NoValidHost, build_cluster)
from repro.vm import Host

LINK_HEADROOM = 2


def make_manager(topology, capacity, inbound, links, health):
    manager = HostManager(topology, capacity=capacity, inbound=inbound,
                          link_headroom=LINK_HEADROOM, health=health,
                          locality=0.5, spread=0.25)
    for name, count in links.items():
        manager.note_link(name, count)
    return manager


def answers(manager, topology, domains):
    """Everything placement can tell about the cluster right now."""
    out = []
    for domain in domains:
        try:
            survivors = [state.name
                         for state in manager.filter_hosts(domain)]
        except NoValidHost as exc:
            survivors = ("NoValidHost", exc.eliminated)
        try:
            chosen = manager.select(domain).name
        except NoValidHost as exc:
            chosen = ("NoValidHost", exc.eliminated)
        out.append((survivors, chosen))
    loads = {state.name: state.planned_load for state in manager.states()}
    return out, loads


STEP = st.one_of(
    st.tuples(st.just("crash"), st.integers(0, 99)),
    st.tuples(st.just("maintenance"), st.integers(0, 99)),
    st.tuples(st.just("inbound"), st.integers(0, 99),
              st.sampled_from((1, -1))),
    st.tuples(st.just("link"), st.integers(0, 99), st.sampled_from((1, -1))),
    st.tuples(st.just("capacity"), st.sampled_from((None, 1, 2, 3))),
    st.tuples(st.just("connect"), st.integers(0, 2)),
    st.tuples(st.just("move"), st.integers(0, 99), st.integers(0, 99)),
    st.tuples(st.just("breaker"), st.integers(0, 99)),
)


class TestCacheCoherence:
    @given(st.lists(STEP, min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None)
    def test_cached_states_answer_like_a_fresh_manager(self, steps):
        bed = build_cluster(nhosts=6, vms_per_host=1, wiring="rack",
                            rack_size=3, nblocks=64, npages=16)
        topology = bed.migrator.topology
        inbound: dict = {}
        links: dict = {}
        capacity = None
        # Simulated time stays at 0, so an opened breaker stays open
        # until the step resets it.
        health = HealthMonitor(bed.env)
        manager = make_manager(topology, capacity, inbound, links, health)
        added = 0

        for step in steps:
            hosts = [topology.hosts[n] for n in sorted(topology.hosts)]
            kind = step[0]
            if kind == "crash":
                host = hosts[step[1] % len(hosts)]
                host.restart() if host.crashed else host.crash()
            elif kind == "maintenance":
                host = hosts[step[1] % len(hosts)]
                if host.maintenance:
                    host.exit_maintenance()
                else:
                    host.enter_maintenance()
            elif kind == "inbound":
                name = hosts[step[1] % len(hosts)].name
                inbound[name] = inbound.get(name, 0) + step[2]
            elif kind == "link":
                name = hosts[step[1] % len(hosts)].name
                links[name] = links.get(name, 0) + step[2]
                manager.note_link(name, step[2])
            elif kind == "capacity":
                capacity = step[1]
                manager.capacity = capacity
            elif kind == "connect":
                host = Host(bed.env, f"extra{added:02d}")
                added += 1
                topology.connect(host, f"rack{step[1]}")
                topology.tag(host, "host")
            elif kind == "move":
                source = hosts[step[1] % len(hosts)]
                target = hosts[step[2] % len(hosts)]
                if source.domains and target is not source:
                    domain = min(source.domains, key=lambda d: d.domain_id)
                    _, vbd = source.detach_domain(domain.domain_id)
                    target.attach_domain(domain, vbd)
            elif kind == "breaker":
                name = hosts[step[1] % len(hosts)].name
                if health.healthy(name):
                    health.breaker(name).force_open(bed.env.now)
                else:
                    health.breaker(name).reset()

            domains = [None]
            resident = next((d for d in bed.domains if d.host is not None),
                            None)
            if resident is not None:
                domains.append(resident)
            fresh = make_manager(topology, capacity, inbound, links, health)
            assert answers(manager, topology, domains) == \
                answers(fresh, topology, domains), step


class TestInvalidation:
    def test_topology_revision_moves_on_connect_and_tag(self):
        bed = build_cluster(nhosts=4, vms_per_host=0, wiring="rack",
                            rack_size=2, nblocks=64, npages=16)
        topology = bed.migrator.topology
        before = topology.revision
        host = Host(bed.env, "late")
        topology.connect(host, "rack0")
        assert topology.revision > before
        before = topology.revision
        topology.tag("late", "host")
        assert topology.revision > before

    def test_new_host_is_placeable_without_refresh(self):
        bed = build_cluster(nhosts=4, vms_per_host=1, wiring="rack",
                            rack_size=2, nblocks=64, npages=16)
        manager = bed.scheduler.hostmanager
        assert manager.select().name == "host00"
        late = Host(bed.env, "aaa-late")
        bed.migrator.topology.connect(late, "rack1")
        # Empty and first by name: the rebuilt states pick it up.
        assert manager.select() is late
        (state,) = [s for s in manager.states() if s.host is late]
        assert state.rack == "rack1"

    def test_rack_of_follows_retagging(self):
        bed = build_cluster(nhosts=4, vms_per_host=0, wiring="rack",
                            rack_size=2, nblocks=64, npages=16)
        topology = bed.migrator.topology
        assert topology.rack_of("host00") == "rack0"
        topology.tag("rack0", "pod")
        assert topology.rack_of("host00") is None

    def test_scheduler_rewired_inbound_map_is_read(self):
        bed = build_cluster(nhosts=4, vms_per_host=1, wiring="rack",
                            rack_size=2, nblocks=64, npages=16)
        manager = HostManager(bed.migrator.topology, spread=1.0)
        scheduler = ClusterScheduler(bed.env, bed.migrator,
                                     hostmanager=manager)
        domain = bed.host("host03").domains[0]
        scheduler.submit(domain, bed.host("host00"))
        assert manager.states()[0].inbound == 1          # host00
        assert manager.select().name == "host01"
