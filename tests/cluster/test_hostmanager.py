"""HostManager: the fixed filter pass, score weights, NoValidHost,
tie-breaks."""

import pytest

from repro.cluster import (HealthMonitor, HostManager, NoValidHost,
                           build_cluster)
from repro.errors import MigrationError

SMALL = dict(nblocks=256, npages=64)


def rack_bed(nhosts=6, vms_per_host=1, rack_size=3, **kw):
    return build_cluster(nhosts=nhosts, vms_per_host=vms_per_host,
                         wiring="rack", rack_size=rack_size, **SMALL, **kw)


class TestFilters:
    def test_up_filter_skips_crashed_hosts(self):
        bed = rack_bed()
        manager = bed.scheduler.hostmanager
        bed.host("host01").crash()
        names = [s.name for s in manager.filter_hosts()]
        assert "host01" not in names
        assert len(names) == 5

    def test_up_filter_skips_maintenance_hosts(self):
        bed = rack_bed()
        manager = bed.scheduler.hostmanager
        bed.host("host02").enter_maintenance()
        names = [s.name for s in manager.filter_hosts()]
        assert "host02" not in names
        bed.host("host02").exit_maintenance()
        names = [s.name for s in manager.filter_hosts()]
        assert "host02" in names

    def test_capacity_filter_rejects_full_hosts(self):
        bed = rack_bed(vms_per_host=2)
        manager = HostManager(bed.migrator.topology, capacity=2)
        with pytest.raises(NoValidHost) as excinfo:
            manager.filter_hosts()
        assert excinfo.value.eliminated == {"capacity": 6}
        # Capacity is read during the pass: no refresh needed.
        manager.capacity = 3
        assert len(manager.filter_hosts()) == 6

    def test_capacity_counts_inbound_planned_load(self):
        bed = rack_bed(vms_per_host=1)
        inbound = {"host01": 2}
        manager = HostManager(bed.migrator.topology, capacity=3,
                              inbound=inbound)
        assert manager.states()[1].planned_load == 3      # host01
        names = [s.name for s in manager.filter_hosts()]
        assert "host01" not in names

    def test_source_host_is_never_a_candidate(self):
        bed = rack_bed()
        manager = bed.scheduler.hostmanager
        domain = bed.host("host00").domains[0]
        names = [s.name for s in
                 manager.filter_hosts(domain)]
        assert "host00" not in names

    def test_link_headroom_filter_uses_manager_ceiling(self):
        bed = rack_bed()
        manager = HostManager(bed.migrator.topology, link_headroom=2)
        manager.note_link("host01", +1)
        manager.note_link("host01", +1)
        names = [s.name for s in manager.filter_hosts()]
        assert "host01" not in names
        manager.note_link("host01", -1)
        names = [s.name for s in manager.filter_hosts()]
        assert "host01" in names

    def test_health_filter_keeps_open_breakers_out(self):
        bed = rack_bed(vms_per_host=1)
        monitor = HealthMonitor(bed.env)
        inbound = {}
        manager = HostManager(bed.migrator.topology, inbound=inbound,
                              health=monitor)
        # Equal loads: without the filter host00 wins on name.
        monitor.breaker("host00").force_open(bed.env.now)
        names = [s.name for s in manager.filter_hosts()]
        assert names == ["host01", "host02", "host03", "host04", "host05"]
        for _ in range(12):
            chosen = manager.select().name
            assert chosen != "host00"
            inbound[chosen] = inbound.get(chosen, 0) + 1
        monitor.breaker("host00").reset()
        assert manager.select().name == "host00"


class TestNoValidHost:
    def test_typed_error_with_elimination_breakdown(self):
        bed = rack_bed(nhosts=3, rack_size=3)
        for host in bed.hosts:
            host.crash()
        manager = bed.scheduler.hostmanager
        with pytest.raises(NoValidHost) as excinfo:
            manager.select()
        assert isinstance(excinfo.value, MigrationError)
        assert excinfo.value.eliminated == {"up": 3}

    def test_elimination_breakdown_follows_filter_order(self):
        bed = rack_bed(vms_per_host=1)
        monitor = HealthMonitor(bed.env)
        manager = HostManager(bed.migrator.topology, capacity=2,
                              inbound={"host00": 1, "host01": 1},
                              link_headroom=2, health=monitor)
        # host00 fails up and capacity: only the first filter counts it.
        bed.host("host00").crash()
        manager.note_link("host02", +2)
        for name in ("host03", "host04", "host05"):
            monitor.breaker(name).force_open(bed.env.now)
        with pytest.raises(NoValidHost) as excinfo:
            manager.select()
        eliminated = excinfo.value.eliminated
        assert list(eliminated) == ["up", "capacity", "link-headroom",
                                    "healthy"]
        assert eliminated == {"up": 1, "capacity": 1, "link-headroom": 1,
                              "healthy": 3}
        assert str(excinfo.value) == (
            "no valid host for placement (eliminated — up:1, capacity:1, "
            "link-headroom:1, healthy:3)")

    def test_everything_excluded_reports_no_candidates(self):
        bed = rack_bed(nhosts=3, rack_size=3)
        manager = bed.scheduler.hostmanager
        with pytest.raises(NoValidHost) as excinfo:
            manager.filter_hosts(exclude=[h.name for h in bed.hosts])
        assert excinfo.value.eliminated == {}
        assert str(excinfo.value) == (
            "no valid host for placement (eliminated — no candidates "
            "offered)")


class TestWeighers:
    """The least-loaded score and its locality and spread weights."""

    def test_least_loaded_prefers_emptiest_host(self):
        bed = rack_bed(vms_per_host=1)
        manager = bed.scheduler.hostmanager
        bed.host("host05").detach_domain(
            bed.host("host05").domains[0].domain_id)
        assert manager.select().name == "host05"

    def test_tie_break_is_lowest_host_name(self):
        bed = rack_bed(vms_per_host=1)
        manager = bed.scheduler.hostmanager
        # All hosts carry identical load: name decides, deterministically.
        assert manager.select().name == "host00"
        domain = bed.host("host00").domains[0]
        assert manager.select(domain).name == "host01"

    def test_locality_weigher_keeps_move_in_source_rack(self):
        bed = rack_bed(vms_per_host=1)
        manager = HostManager(bed.migrator.topology, locality=10.0)
        domain = bed.host("host04").domains[0]
        # host04 lives in rack1; even after emptying a rack0 host, the
        # heavily weighted locality term keeps the move inside rack1.
        bed.host("host00").detach_domain(
            bed.host("host00").domains[0].domain_id)
        winner = manager.select(domain)
        assert winner.name in {"host03", "host05"}

    def test_spread_weigher_fans_out_inbound_bursts(self):
        bed = rack_bed(vms_per_host=1)
        inbound = {}
        manager = HostManager(bed.migrator.topology, spread=1.0,
                              inbound=inbound)
        first = manager.select().name
        inbound[first] = 1
        second = manager.select().name
        assert second != first

    def test_weigher_combo_weighted_sum(self):
        bed = rack_bed(vms_per_host=3)
        for name, keep in (("host00", 0), ("host01", 1)):
            host = bed.host(name)
            for domain in host.domains[keep:]:
                host.detach_domain(domain.domain_id)
        # Planned load: host00 0+2, host01 1+1, the rest 3+0.
        inbound = {"host00": 2, "host01": 1}
        topology = bed.migrator.topology

        def winner(spread):
            manager = HostManager(topology, inbound=inbound, spread=spread)
            return manager.select().name

        # host00 and host01 tie on load, so the name picks host00; the
        # 0.1 spread term (-0.2 vs -0.1) flips it to host01.
        assert winner(0.0) == "host00"
        assert winner(0.1) == "host01"
        # At weight 2 the spread term outweighs load: host01 scores
        # -2 - 2 = -4 against host02's -3.
        assert winner(2.0) == "host02"


class TestSchedulerIntegration:
    def test_scheduler_places_through_hostmanager(self):
        bed = rack_bed(vms_per_host=1)
        victim = bed.host("host00")
        jobs = bed.scheduler.evacuate(victim)
        bed.scheduler.drain(jobs)
        assert all(job.succeeded for job in jobs)
        assert not victim.domains

    def test_evacuation_avoids_maintenance_destination(self):
        bed = rack_bed(vms_per_host=1)
        bed.host("host01").enter_maintenance()
        bed.host("host02").enter_maintenance()
        jobs = bed.scheduler.evacuate(bed.host("host00"))
        bed.scheduler.drain(jobs)
        assert all(job.succeeded for job in jobs)
        assert all(job.destination.name in {"host03", "host04", "host05"}
                   for job in jobs)
