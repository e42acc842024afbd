"""HostManager: filter chains, weigher combos, NoValidHost, tie-breaks."""

import pytest

from repro.cluster import (HostManager, NoValidHost, PlacementSpec,
                           build_cluster, register_filter, register_weigher)
from repro.cluster.hostmanager import FILTERS, WEIGHERS
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
        names = [s.name for s in manager.filter_hosts(PlacementSpec())]
        assert "host01" not in names
        assert len(names) == 5

    def test_up_filter_skips_maintenance_hosts(self):
        bed = rack_bed()
        manager = bed.scheduler.hostmanager
        bed.host("host02").enter_maintenance()
        names = [s.name for s in manager.filter_hosts(PlacementSpec())]
        assert "host02" not in names
        bed.host("host02").exit_maintenance()
        names = [s.name for s in manager.filter_hosts(PlacementSpec())]
        assert "host02" in names

    def test_capacity_filter_rejects_full_hosts(self):
        bed = rack_bed(vms_per_host=2)
        manager = HostManager(bed.migrator.topology, capacity=2)
        with pytest.raises(NoValidHost) as excinfo:
            manager.filter_hosts(PlacementSpec())
        assert excinfo.value.eliminated == {"capacity": 6}
        manager.capacity = 3
        manager.refresh()
        assert len(manager.filter_hosts(PlacementSpec())) == 6

    def test_capacity_counts_inbound_planned_load(self):
        bed = rack_bed(vms_per_host=1)
        inbound = {"host01": 2}
        manager = HostManager(bed.migrator.topology, capacity=3,
                              inbound=inbound)
        assert manager.state_of("host01").planned_load == 3
        names = [s.name for s in manager.filter_hosts(PlacementSpec())]
        assert "host01" not in names

    def test_affinity_required_rack_and_anti_affinity(self):
        bed = rack_bed()
        manager = bed.scheduler.hostmanager
        spec = PlacementSpec(required_rack="rack1",
                             anti_affinity=("host04",))
        names = [s.name for s in manager.filter_hosts(spec)]
        assert names == ["host03", "host05"]

    def test_source_host_is_never_a_candidate(self):
        bed = rack_bed()
        manager = bed.scheduler.hostmanager
        domain = bed.host("host00").domains[0]
        names = [s.name for s in
                 manager.filter_hosts(PlacementSpec(domain=domain))]
        assert "host00" not in names

    def test_link_headroom_filter_uses_manager_ceiling(self):
        bed = rack_bed()
        manager = HostManager(bed.migrator.topology,
                              filters=("up", "link-headroom"),
                              link_headroom=2)
        manager.note_link("host01", +1)
        manager.note_link("host01", +1)
        names = [s.name for s in manager.filter_hosts(PlacementSpec())]
        assert "host01" not in names
        manager.note_link("host01", -1)
        names = [s.name for s in manager.filter_hosts(PlacementSpec())]
        assert "host01" in names

    def test_unknown_filter_or_weigher_name_rejected(self):
        bed = rack_bed()
        with pytest.raises(MigrationError):
            HostManager(bed.migrator.topology, filters=("up", "bogus"))
        with pytest.raises(MigrationError):
            HostManager(bed.migrator.topology, weighers=("bogus",))


class TestNoValidHost:
    def test_typed_error_with_elimination_breakdown(self):
        bed = rack_bed(nhosts=3, rack_size=3)
        for host in bed.hosts:
            host.crash()
        manager = bed.scheduler.hostmanager
        with pytest.raises(NoValidHost) as excinfo:
            manager.select(PlacementSpec())
        assert isinstance(excinfo.value, MigrationError)
        assert excinfo.value.eliminated == {"up": 3}

    def test_everything_excluded_reports_no_candidates(self):
        bed = rack_bed(nhosts=3, rack_size=3)
        manager = bed.scheduler.hostmanager
        with pytest.raises(NoValidHost) as excinfo:
            manager.filter_hosts(PlacementSpec(),
                                 exclude=[h.name for h in bed.hosts])
        assert excinfo.value.eliminated == {}


class TestWeighers:
    def test_least_loaded_prefers_emptiest_host(self):
        bed = rack_bed(vms_per_host=1)
        manager = bed.scheduler.hostmanager
        bed.host("host05").detach_domain(
            bed.host("host05").domains[0].domain_id)
        assert manager.select(PlacementSpec()).name == "host05"

    def test_tie_break_is_lowest_host_name(self):
        bed = rack_bed(vms_per_host=1)
        manager = bed.scheduler.hostmanager
        # All hosts carry identical load: name decides, deterministically.
        assert manager.select(PlacementSpec()).name == "host00"
        domain = bed.host("host00").domains[0]
        assert manager.select(PlacementSpec(domain=domain)).name == "host01"

    def test_locality_weigher_keeps_move_in_source_rack(self):
        bed = rack_bed(vms_per_host=1)
        manager = HostManager(bed.migrator.topology,
                              weighers=(("least-loaded", 1.0),
                                        ("locality", 10.0)))
        domain = bed.host("host04").domains[0]
        # host04 lives in rack1; even after emptying a rack0 host, the
        # heavily weighted locality term keeps the move inside rack1.
        bed.host("host00").detach_domain(
            bed.host("host00").domains[0].domain_id)
        winner = manager.select(PlacementSpec(domain=domain))
        assert winner.name in {"host03", "host05"}

    def test_spread_weigher_fans_out_inbound_bursts(self):
        bed = rack_bed(vms_per_host=1)
        inbound = {}
        manager = HostManager(bed.migrator.topology,
                              weighers=("spread",), inbound=inbound)
        first = manager.select(PlacementSpec()).name
        inbound[first] = 1
        second = manager.select(PlacementSpec()).name
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

        def winner(weighers):
            manager = HostManager(topology, weighers=weighers,
                                  inbound=inbound)
            return manager.select(PlacementSpec()).name

        # host00 and host01 tie on load, so the name picks host00; the
        # 0.1 spread term (-0.2 vs -0.1) flips it to host01, which is
        # neither weigher's choice alone (spread alone picks host02).
        assert winner((("least-loaded", 1.0),)) == "host00"
        assert winner((("spread", 1.0),)) == "host02"
        assert winner((("least-loaded", 1.0), ("spread", 0.1))) == "host01"
        # At weight 2 the spread term outweighs load: host01 scores
        # -2 - 2 = -4 against host02's -3.
        assert winner((("least-loaded", 1.0), ("spread", 2.0))) == "host02"


class TestRegistry:
    def test_custom_filter_and_weigher_plug_in(self):
        bed = rack_bed(vms_per_host=1)

        @register_filter("test-odd-only")
        def odd_only(state, spec):
            return int(state.name[-1]) % 2 == 1

        @register_weigher("test-highest-name")
        def highest_name(state, spec):
            return float(int(state.name[-1]))

        try:
            manager = HostManager(bed.migrator.topology,
                                  filters=("up", "test-odd-only"),
                                  weighers=("test-highest-name",))
            assert manager.select(PlacementSpec()).name == "host05"
        finally:
            del FILTERS["test-odd-only"]
            del WEIGHERS["test-highest-name"]


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
