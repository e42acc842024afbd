"""ClusterScheduler behaviour: evacuation, admission, limits, policies."""

import pytest

from repro.cluster import (HostManager, JobFailure, NoValidHost,
                           assert_conserved, audit_link_bytes,
                           build_cluster)
from repro.errors import MigrationError, ReproError
from repro.storage import PhysicalDisk
from repro.vm import Domain, GuestMemory, Host

SMALL = dict(nblocks=256, npages=64)


def sample_peak(bed, probe, interval=1e-3):
    """Background process recording the peak value of ``probe()``."""
    peak = [0]

    def proc(env):
        while True:
            peak[0] = max(peak[0], probe())
            yield env.timeout(interval)

    bed.env.process(proc(bed.env), name="peak-probe")
    return peak


class TestEvacuate:
    def test_evacuation_empties_host(self):
        bed = build_cluster(nhosts=4, vms_per_host=2, **SMALL)
        victim = bed.hosts[0]
        jobs = bed.scheduler.evacuate(victim)
        assert len(jobs) == 2
        bed.scheduler.drain(jobs)
        assert not victim.domains
        assert all(job.succeeded for job in jobs)
        assert all(job.report is not None for job in jobs)
        assert_conserved(bed.migrator.migrations)

    def test_least_loaded_spreads_placements(self):
        # 4 VMs leaving one host of a 5-host cluster: with planned-load
        # tracking each of the 4 surviving hosts receives exactly one.
        bed = build_cluster(nhosts=5, vms_per_host=4, **SMALL)
        for host in bed.hosts[1:]:
            for domain in list(host.domains):
                host.detach_domain(domain.domain_id)
        victim = bed.hosts[0]
        jobs = bed.scheduler.evacuate(victim)
        bed.scheduler.drain(jobs)
        assert not victim.domains
        assert [len(h.domains) for h in bed.hosts[1:]] == [1, 1, 1, 1]

    def test_evacuate_skips_crashed_candidates(self):
        bed = build_cluster(nhosts=3, vms_per_host=1, **SMALL)
        bed.hosts[1].crashed = True
        jobs = bed.scheduler.evacuate(bed.hosts[0])
        bed.scheduler.drain(jobs)
        assert all(job.succeeded for job in jobs)
        assert all(job.destination is bed.hosts[2] for job in jobs)

    def test_evacuate_with_no_candidates_raises(self):
        bed = build_cluster(nhosts=2, vms_per_host=1, **SMALL)
        bed.hosts[1].crashed = True
        with pytest.raises(MigrationError):
            bed.scheduler.evacuate(bed.hosts[0])

    def test_makespan_covers_submission_to_completion(self):
        bed = build_cluster(nhosts=3, vms_per_host=2, **SMALL)
        jobs = bed.scheduler.evacuate(bed.hosts[0])
        bed.scheduler.drain(jobs)
        makespan = bed.scheduler.makespan(jobs)
        assert makespan > 0
        assert makespan == pytest.approx(
            max(j.ended_at for j in jobs) - min(j.submitted_at for j in jobs))


class TestAdmissionControl:
    def test_concurrency_cap_is_respected(self):
        bed = build_cluster(nhosts=5, vms_per_host=8, max_concurrent=2,
                            **SMALL)
        peak = sample_peak(bed, lambda: bed.scheduler.running)
        jobs = bed.scheduler.evacuate(bed.hosts[0])
        assert len(jobs) == 8
        bed.scheduler.drain(jobs)
        assert all(job.succeeded for job in jobs)
        assert peak[0] == 2

    def test_queued_jobs_wait(self):
        bed = build_cluster(nhosts=3, vms_per_host=4, max_concurrent=1,
                            **SMALL)
        jobs = bed.scheduler.evacuate(bed.hosts[0])
        bed.scheduler.drain(jobs)
        # Serial drain: every job after the first queued behind it.
        waits = sorted(job.queue_time for job in jobs)
        assert waits[0] == 0.0
        assert all(wait > 0 for wait in waits[1:])

    def test_serial_vs_concurrent_makespan(self):
        serial = build_cluster(nhosts=5, vms_per_host=4, max_concurrent=1,
                               **SMALL)
        serial.scheduler.drain(serial.scheduler.evacuate(serial.hosts[0]))
        wide = build_cluster(nhosts=5, vms_per_host=4, max_concurrent=4,
                             **SMALL)
        wide.scheduler.drain(wide.scheduler.evacuate(wide.hosts[0]))
        assert wide.scheduler.makespan() < serial.scheduler.makespan()

    def test_invalid_limits_rejected(self):
        bed = build_cluster(nhosts=2, vms_per_host=0, **SMALL)
        from repro.cluster import ClusterScheduler
        with pytest.raises(MigrationError):
            ClusterScheduler(bed.env, bed.migrator, max_concurrent=0)
        with pytest.raises(MigrationError):
            ClusterScheduler(bed.env, bed.migrator, per_link_limit=0)


class TestPerLinkLimits:
    def test_per_link_limit_serialises_shared_uplink(self):
        # Star wiring: every evacuation crosses the victim's uplink, so a
        # per-link limit of 1 serialises the drain even with a wide
        # admission cap.
        bed = build_cluster(nhosts=4, vms_per_host=3, wiring="star",
                            max_concurrent=8, per_link_limit=1, **SMALL)
        peak = sample_peak(
            bed, lambda: sum(1 for j in bed.scheduler.jobs
                             if j.status == "running"))
        jobs = bed.scheduler.evacuate(bed.hosts[0])
        bed.scheduler.drain(jobs)
        assert all(job.succeeded for job in jobs)
        assert peak[0] == 1
        assert_conserved(bed.migrator.migrations)

    def test_disjoint_routes_run_concurrently(self):
        # Full wiring: host00->host02 and host01->host03 share no link, so
        # per_link_limit=1 still lets both run at once.
        bed = build_cluster(nhosts=4, vms_per_host=1, wiring="full",
                            max_concurrent=8, per_link_limit=1, **SMALL)
        peak = sample_peak(
            bed, lambda: sum(1 for j in bed.scheduler.jobs
                             if j.status == "running"))
        j1 = bed.scheduler.submit(bed.hosts[0].domains[0],
                                  bed.hosts[2])
        j2 = bed.scheduler.submit(bed.hosts[1].domains[0],
                                  bed.hosts[3])
        bed.scheduler.drain([j1, j2])
        assert j1.succeeded and j2.succeeded
        assert peak[0] == 2


class TestRebalance:
    def _lopsided(self):
        bed = build_cluster(nhosts=3, vms_per_host=0, **SMALL)
        heavy = bed.hosts[0]
        for v in range(4):
            vbd = heavy.prepare_vbd(SMALL["nblocks"])
            vbd.write(0, SMALL["nblocks"])
            domain = Domain(bed.env,
                            GuestMemory(SMALL["npages"], clock=heavy.clock),
                            name=f"vm-extra-{v}")
            heavy.attach_domain(domain, vbd)
        return bed

    def test_rebalance_spreads_load(self):
        bed = self._lopsided()
        assert [len(h.domains) for h in bed.hosts] == [4, 0, 0]
        jobs = bed.scheduler.rebalance()
        bed.scheduler.drain(jobs)
        assert all(job.succeeded for job in jobs)
        # ceil(4/3) = 2: heavy host drops to the ceiling, the rest
        # absorb one each.
        assert sorted(len(h.domains) for h in bed.hosts) == [1, 1, 2]

    def test_rebalance_on_balanced_cluster_is_a_noop(self):
        bed = build_cluster(nhosts=3, vms_per_host=2, **SMALL)
        assert bed.scheduler.rebalance() == []

    def test_rebalance_ignores_surrogate_hosts(self):
        # A shard's topology holds stand-ins for cross-rack destinations.
        # One holding in-flight domains is neither load to average over
        # nor a host to drain.
        bed = self._lopsided()
        surrogate = Host(bed.env, "host99", PhysicalDisk(bed.env),
                         bed.hosts[0].clock)
        surrogate.is_surrogate = True
        bed.migrator.topology.connect(surrogate, "switch", 1e9, 1e-4)
        for v in range(6):
            vbd = surrogate.prepare_vbd(SMALL["nblocks"])
            domain = Domain(bed.env,
                            GuestMemory(SMALL["npages"],
                                        clock=surrogate.clock),
                            name=f"vm-inflight-{v}")
            surrogate.attach_domain(domain, vbd)
        jobs = bed.scheduler.rebalance()
        assert all(job.domain.host is bed.hosts[0] for job in jobs)
        # ceil(4/3) = 2 over the three real hosts; counting the
        # surrogate would give ceil(10/4) = 3 and move only one.
        assert len(jobs) == 2
        bed.scheduler.drain(jobs)
        assert all(job.succeeded for job in jobs)
        assert [len(h.domains) for h in bed.hosts] == [2, 1, 1]
        assert len(surrogate.domains) == 6


class TestPolicies:
    """The retired placement policies under the default least-loaded
    score."""

    def test_round_robin_cycles_destinations(self):
        # Equal resident loads: each placement in a burst raises its
        # target's planned load, so the burst fans out in host-name
        # order, as round-robin did.
        bed = build_cluster(nhosts=4, vms_per_host=3, **SMALL)
        jobs = bed.scheduler.evacuate(bed.hosts[0])
        assert [j.destination.name for j in jobs] == [
            "host01", "host02", "host03"]
        bed.scheduler.drain(jobs)
        assert all(job.succeeded for job in jobs)

    def test_least_loaded_prefers_lightest_host(self):
        bed = build_cluster(nhosts=3, vms_per_host=0, **SMALL)
        manager = HostManager(bed.migrator.topology,
                              inbound={"host01": 3, "host02": 1})
        pick = manager.select(exclude=("host00",))
        assert pick is bed.hosts[2]


class TestFailureContainment:
    def test_crashed_destination_fails_only_its_job(self):
        bed = build_cluster(nhosts=4, vms_per_host=1, **SMALL)
        bed.hosts[3].crashed = True
        victim = bed.hosts[0]
        domain = victim.domains[0]
        doomed = bed.scheduler.submit(domain, bed.hosts[3])
        healthy = bed.scheduler.submit(bed.hosts[1].domains[0],
                                       bed.hosts[2])
        bed.scheduler.drain([doomed, healthy])

        assert doomed.status == "failed"
        assert isinstance(doomed.error, ReproError)
        assert doomed.report is not None and doomed.report.extra["failed"]
        assert domain.host is victim and domain.running

        assert healthy.succeeded
        assert bed.scheduler.makespan() > 0

    def test_homeless_domain_fails_fast(self):
        bed = build_cluster(nhosts=2, vms_per_host=1, **SMALL)
        stray = Domain(bed.env, GuestMemory(SMALL["npages"],
                                            clock=bed.hosts[0].clock),
                       name="stray")
        job = bed.scheduler.submit(stray, bed.hosts[1])
        bed.scheduler.drain([job])
        assert job.status == "failed"
        assert isinstance(job.error, MigrationError)

    def test_planned_load_recovers_after_failure(self):
        bed = build_cluster(nhosts=3, vms_per_host=1, **SMALL)
        bed.hosts[2].crashed = True
        job = bed.scheduler.submit(bed.hosts[0].domains[0],
                                   bed.hosts[2])
        bed.scheduler.drain([job])
        assert job.status == "failed"
        # Resident only, no stuck inbound.
        assert bed.scheduler.hostmanager.states()[2].planned_load == 1


class TestUnstartedFailures:
    """Jobs that fail before reaching the migrator: one attempt, one
    structured failure, a dead letter and no stuck inbound count."""

    @staticmethod
    def assert_dead_lettered(bed, job, error_type, phase, destination):
        assert job.status == "failed"
        assert job.attempts == 1 and job.started_at is None
        assert job.failures == [JobFailure(
            error_type=error_type, message=str(job.error), phase=phase,
            attempt=1, at=job.ended_at, destination=destination)]
        assert [j is job for j in bed.scheduler.dead_letter] == [True]
        assert all(state.inbound == 0
                   for state in bed.scheduler.hostmanager.states())
        metrics = bed.env.metrics
        assert metrics.get("cluster.jobs.dead_letter").total == 1
        assert metrics.get("cluster.jobs.failed") is None
        assert metrics.get("cluster.jobs.attempt_failures") is None
        [letter] = [i for i in bed.env.tracer.instants
                    if i.name == "cluster:dead-letter"]
        assert letter.at == job.ended_at
        assert letter.args == {"domain": job.domain.name, "attempts": 1,
                               "failure": str(job.failure)}

    def test_homeless_domain_fails_at_admission(self):
        bed = build_cluster(nhosts=2, vms_per_host=1, observe=True,
                            **SMALL)
        stray = Domain(bed.env, GuestMemory(SMALL["npages"],
                                            clock=bed.hosts[0].clock),
                       name="stray")
        job = bed.scheduler.submit(stray, bed.hosts[1])
        bed.scheduler.drain([job])
        self.assert_dead_lettered(bed, job, "MigrationError", "admission",
                                  "host01")

    def test_no_valid_host_at_replacement_fails_in_placement(self):
        bed = build_cluster(nhosts=2, vms_per_host=1, max_concurrent=1,
                            observe=True, **SMALL)
        # The blocker holds the only admission slot while the evacuation
        # target enters maintenance, leaving nowhere to re-place to.
        blocker = bed.scheduler.submit(bed.hosts[1].domains[0],
                                       bed.hosts[0])
        [job] = bed.scheduler.evacuate(bed.hosts[0])
        assert job.destination is bed.hosts[1]
        bed.hosts[1].enter_maintenance()
        bed.scheduler.drain([blocker, job])
        assert blocker.succeeded
        assert isinstance(job.error, NoValidHost)
        self.assert_dead_lettered(bed, job, "NoValidHost", "placement",
                                  "host01")


class TestReplaceablePlacement:
    """Mid-churn crash regression: an evacuation whose scheduler-chosen
    destination dies while the job queues must be re-placed at admission
    instead of migrating into a dead host."""

    def _queued_evacuation(self, bed):
        # Occupy the single admission slot so the evacuation job queues
        # long enough for its destination to fail underneath it.
        blocker = bed.scheduler.submit(bed.hosts[3].domains[0],
                                       bed.hosts[2])
        jobs = bed.scheduler.evacuate(bed.hosts[0])
        assert len(jobs) == 1
        # Least-loaded + name tie-break: host01 is the planned target.
        assert jobs[0].destination.name == "host01"
        assert jobs[0].replaceable
        return blocker, jobs[0]

    def test_crashed_destination_is_replaced_at_admission(self):
        from repro.faults import FaultInjector, FaultPlan

        bed = build_cluster(nhosts=4, vms_per_host=1, max_concurrent=1,
                            **SMALL)
        blocker, job = self._queued_evacuation(bed)
        plan = FaultPlan().crash("host01", at=1e-4, down_for=1000.0)
        FaultInjector(bed.env, plan).inject(bed.migrator)
        bed.scheduler.drain([blocker, job])
        assert blocker.succeeded
        assert job.succeeded
        assert job.destination.name != "host01"
        assert not bed.hosts[0].domains
        assert_conserved(bed.migrator.migrations)

    def test_maintenance_destination_is_replaced_at_admission(self):
        bed = build_cluster(nhosts=4, vms_per_host=1, max_concurrent=1,
                            **SMALL)
        blocker, job = self._queued_evacuation(bed)
        bed.hosts[1].enter_maintenance()
        bed.scheduler.drain([blocker, job])
        assert blocker.succeeded and job.succeeded
        assert job.destination.name != "host01"

    def test_explicit_submission_still_fails_not_replaced(self):
        from repro.faults import FaultInjector, FaultPlan

        bed = build_cluster(nhosts=4, vms_per_host=1, max_concurrent=1,
                            **SMALL)
        blocker = bed.scheduler.submit(bed.hosts[3].domains[0],
                                       bed.hosts[2])
        explicit = bed.scheduler.submit(bed.hosts[0].domains[0],
                                        bed.hosts[1])
        assert not explicit.replaceable
        plan = FaultPlan().crash("host01", at=1e-4, down_for=1000.0)
        FaultInjector(bed.env, plan).inject(bed.migrator)
        bed.scheduler.drain([blocker, explicit])
        assert blocker.succeeded
        # The user asked for host01 specifically; the scheduler must not
        # silently reroute an explicit placement.
        assert explicit.status == "failed"
        assert explicit.destination.name == "host01"


class TestWirings:
    @pytest.mark.parametrize("wiring", ["full", "star", "rack"])
    def test_evacuation_works_on_every_wiring(self, wiring):
        bed = build_cluster(nhosts=4, vms_per_host=2, wiring=wiring,
                            rack_size=2, **SMALL)
        jobs = bed.scheduler.evacuate(bed.hosts[0])
        bed.scheduler.drain(jobs)
        assert not bed.hosts[0].domains
        assert all(job.succeeded for job in jobs)
        audits = audit_link_bytes(bed.migrator.migrations)
        assert audits and all(audit.conserved for audit in audits)

    def test_rack_wiring_routes_cross_rack_through_core(self):
        bed = build_cluster(nhosts=4, vms_per_host=1, wiring="rack",
                            rack_size=2, **SMALL)
        route = bed.migrator.topology.route(bed.hosts[0], bed.hosts[3])
        assert route == ["host00", "rack0", "core", "rack1", "host03"]
