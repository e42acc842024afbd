"""Host health tracking: CircuitBreaker state machine and the
HealthMonitor feeds (job outcomes, injector crash events, polling)."""

import pytest

from repro.cluster import (CircuitBreaker, HealthMonitor, RetryPolicy,
                           build_cluster)
from repro.cluster.hostmanager import HostManager
from repro.errors import MigrationError, NoValidHost
from repro.faults import FaultInjector, FaultPlan
from repro.sim import Environment

SMALL = dict(nblocks=256, npages=64)


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(MigrationError, match="failure_threshold"):
            CircuitBreaker("h", failure_threshold=0)
        with pytest.raises(MigrationError, match="recovery_time"):
            CircuitBreaker("h", recovery_time=0.0)

    def test_trips_after_consecutive_failures(self):
        b = CircuitBreaker("h", failure_threshold=3, recovery_time=5.0)
        b.record_failure(0.0)
        b.record_failure(1.0)
        assert b.state(1.0) == "closed" and b.allows(1.0)
        b.record_failure(2.0)
        assert b.state(2.0) == "open" and not b.allows(2.0)
        assert b.trips == 1

    def test_success_resets_the_streak(self):
        b = CircuitBreaker("h", failure_threshold=2)
        b.record_failure(0.0)
        b.record_success(0.5)
        b.record_failure(1.0)
        assert b.state(1.0) == "closed"

    def test_open_lapses_to_half_open_single_probe(self):
        b = CircuitBreaker("h", failure_threshold=1, recovery_time=5.0)
        b.record_failure(0.0)
        assert b.state(4.9) == "open"
        assert b.state(5.0) == "half-open"
        assert b.allows(5.0)        # the probe gets through
        assert not b.allows(5.0)    # everyone else waits for its verdict

    def test_released_probe_goes_to_the_next_caller(self):
        b = CircuitBreaker("h", failure_threshold=1, recovery_time=5.0)
        b.record_failure(0.0)
        assert b.allows(5.0)
        b.release_probe()           # no verdict: still half-open
        assert b.state(5.0) == "half-open" and b.trips == 1
        assert b.allows(5.0)
        assert not b.allows(5.0)

    def test_probe_success_closes_probe_failure_reopens(self):
        b = CircuitBreaker("h", failure_threshold=1, recovery_time=5.0)
        b.record_failure(0.0)
        assert b.allows(5.0)
        b.record_success(5.5)
        assert b.state(5.5) == "closed"

        b.record_failure(6.0)  # trips again (threshold 1)
        assert b.allows(11.0)
        b.record_failure(11.5)  # probe died: recovery clock restarts
        assert b.state(11.5 + 4.9) == "open"
        assert b.state(11.5 + 5.0) == "half-open"
        assert b.trips == 3

    def test_force_open_skips_the_streak(self):
        b = CircuitBreaker("h", failure_threshold=5)
        b.force_open(1.0)
        assert b.state(1.0) == "open" and b.trips == 1

    def test_reset_closes_administratively(self):
        b = CircuitBreaker("h", failure_threshold=1)
        b.record_failure(0.0)
        b.reset()
        assert b.state(0.0) == "closed" and b.allows(0.0)


class TestHealthMonitor:
    def test_unknown_hosts_are_healthy_without_allocation(self):
        mon = HealthMonitor(Environment())
        assert mon.healthy("never-seen")
        assert mon.state_of("never-seen") == "closed"
        assert not mon.breakers  # the query created nothing

    def test_failures_open_and_time_heals(self):
        env = Environment()
        mon = HealthMonitor(env, failure_threshold=2, recovery_time=1.0)
        mon.record_failure("h")
        mon.record_failure("h")
        assert not mon.healthy("h") and mon.state_of("h") == "open"
        env.run(until=2.0)
        assert mon.state_of("h") == "half-open"
        assert mon.healthy("h")  # its single probe is free

    def test_healthy_is_a_query_admit_takes_the_probe(self):
        env = Environment()
        mon = HealthMonitor(env, failure_threshold=1, recovery_time=1.0)
        mon.record_failure("h")
        env.run(until=1.0)
        assert mon.healthy("h") and mon.healthy("h")
        assert mon.admit("h")           # one job goes: the probe
        assert not mon.healthy("h") and not mon.admit("h")
        mon.record_success("h")
        assert mon.healthy("h") and mon.admit("h") and mon.admit("h")
        assert mon.admit("never-seen") and "never-seen" not in mon.breakers

    def test_open_fraction_counts_only_open(self):
        env = Environment()
        mon = HealthMonitor(env, failure_threshold=1, recovery_time=10.0)
        mon.record_failure("a")
        assert mon.open_fraction(["a", "b", "c", "d"]) == 0.25
        assert mon.open_fraction([]) == 0.0

    def test_attach_wires_injector_crash_events(self):
        bed = build_cluster(nhosts=3, vms_per_host=1, health=True,
                            observe=True, **SMALL)
        plan = FaultPlan().crash("host01", at=0.5, down_for=1.0)
        injector = FaultInjector(bed.env, plan).inject(bed.migrator)
        bed.scheduler.health.attach(injector)
        bed.env.run(until=0.6)
        assert bed.scheduler.health.state_of("host01") == "open"
        assert bed.env.metrics.counter("cluster.health.crashes").total == 1

    def test_poll_folds_unannounced_crashes_once(self):
        bed = build_cluster(nhosts=2, vms_per_host=1, **SMALL)
        mon = HealthMonitor(bed.env, recovery_time=0.5)
        bed.hosts[0].crashed = True
        mon.poll(bed.hosts)
        mon.poll(bed.hosts)  # second sighting must not re-trip
        assert mon.breaker("host00").trips == 1


class TestHealthyFilter:
    def test_open_breaker_excludes_host_from_placement(self):
        bed = build_cluster(nhosts=3, vms_per_host=1, health=True, **SMALL)
        mon = bed.scheduler.health
        assert bed.scheduler.hostmanager.health is mon
        for _ in range(mon.failure_threshold):
            mon.record_failure("host01")
        domain = bed.hosts[0].domains[0]
        choice = bed.scheduler.hostmanager.select(domain,
                                                  exclude=("host00",))
        assert choice.name == "host02"

    def test_all_breakers_open_means_no_valid_host(self):
        bed = build_cluster(nhosts=2, vms_per_host=1, health=True, **SMALL)
        mon = bed.scheduler.health
        for _ in range(mon.failure_threshold):
            mon.record_failure("host01")
        domain = bed.hosts[0].domains[0]
        with pytest.raises(NoValidHost):
            bed.scheduler.hostmanager.select(domain, exclude=("host00",))

    def test_placement_pass_takes_no_half_open_probe(self):
        # A half-open host that loses the scoring keeps its probe free:
        # the pass only asks, so the next placement still sees it.
        bed = build_cluster(nhosts=4, vms_per_host=1, **SMALL)
        mon = HealthMonitor(bed.env, recovery_time=0.5)
        manager = HostManager(bed.migrator.topology, health=mon)
        mon.breaker("host03").force_open(0.0)
        bed.env.run(until=1.0)
        assert mon.state_of("host03") == "half-open"
        domain = bed.hosts[0].domains[0]
        assert manager.select(domain).name == "host01"
        assert [state.name for state in manager.filter_hosts(domain)] == [
            "host01", "host02", "host03"]

    def test_evacuation_sends_the_probe_to_a_half_open_host(self):
        # The pass picks the empty half-open host; the job's own admission
        # takes the probe and runs there, and its success closes the
        # breaker.
        bed = build_cluster(nhosts=4, vms_per_host=1, health=True, **SMALL)
        mon = bed.scheduler.health
        empty = bed.hosts[3]
        for domain in list(empty.domains):
            empty.detach_domain(domain.domain_id)
        mon.breaker("host03").force_open(0.0)
        bed.env.run(until=mon.recovery_time)
        assert mon.state_of("host03") == "half-open"
        jobs = bed.scheduler.evacuate(bed.hosts[0])
        bed.scheduler.drain(jobs)
        assert [job.destination for job in jobs] == [empty]
        assert jobs[0].succeeded
        assert mon.state_of("host03") == "closed"

    def test_one_probe_at_a_time(self):
        bed = build_cluster(nhosts=4, vms_per_host=1, health=True, **SMALL)
        mon = bed.scheduler.health
        target = bed.hosts[3]
        mon.breaker(target.name).force_open(0.0)
        bed.env.run(until=mon.recovery_time)
        first, second = (
            bed.scheduler.submit(host.domains[0], target,
                                 replaceable=True)
            for host in bed.hosts[:2])
        bed.scheduler.drain([first, second])
        assert first.destination is target
        assert second.destination is not target
        assert first.succeeded and second.succeeded

    def test_source_crash_frees_the_probe_without_a_verdict(self):
        # The probe job's first attempt dies because its *source* crashed:
        # no verdict on host03, but the probe comes back, so the retry
        # takes it again instead of leaving host03 out of placement.
        bed = build_cluster(nhosts=4, vms_per_host=1, health=True,
                            retry=RetryPolicy(max_attempts=3,
                                              wait_for_restart=True),
                            **SMALL)
        mon = bed.scheduler.health
        target = bed.hosts[3]
        mon.breaker(target.name).force_open(0.0)
        bed.env.run(until=mon.recovery_time)
        job = bed.scheduler.submit(bed.hosts[0].domains[0], target,
                                   replaceable=True)
        plan = FaultPlan().crash("host00", at=bed.env.now + 0.002,
                                 down_for=0.3)
        FaultInjector(bed.env, plan).inject(bed.migrator)
        bed.scheduler.drain([job])
        assert job.attempts == 2 and job.succeeded
        assert job.destination is target
        assert mon.state_of(target.name) == "closed"
        assert target.name in [
            state.name for state in bed.scheduler.hostmanager.filter_hosts()]
