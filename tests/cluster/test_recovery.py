"""Job-level failure recovery: retry with re-placement, dead-lettering,
deadlines, overload shedding, and structured failure records."""

import pytest

from repro.cluster import RetryPolicy, build_cluster
from repro.errors import AdmissionRejected, MigrationError, ReproError
from repro.faults import FaultInjector, FaultPlan

SMALL = dict(nblocks=256, npages=64)
#: Big enough that a crash at t=0.1 lands mid-precopy.
SLOW = dict(nblocks=16384, npages=64)

POLICY = RetryPolicy(max_attempts=3, initial_backoff=0.05, max_backoff=0.5)


def recovering_cluster(nhosts=3, **kw):
    kw.setdefault("retry", POLICY)
    kw.setdefault("health", True)
    return build_cluster(nhosts=nhosts, vms_per_host=1, **kw)


def replace_instants(bed):
    return [instant for instant in bed.env.tracer.instants
            if instant.name == "cluster:replace"]


def assert_settled(bed):
    """No inbound or uplink charge survives the drain."""
    for state in bed.scheduler.hostmanager.states():
        assert state.inbound == 0 and state.link_inflight == 0


class TestRetryWithReplacement:
    def test_replaceable_job_survives_destination_crash(self):
        bed = recovering_cluster(observe=True, **SLOW)
        plan = FaultPlan().crash("host01", at=0.1)
        injector = FaultInjector(bed.env, plan).inject(bed.migrator)
        bed.scheduler.health.attach(injector)
        job = bed.scheduler.submit(bed.hosts[0].domains[0],
                                   bed.hosts[1], replaceable=True)
        bed.scheduler.drain([job])

        assert job.succeeded
        assert job.destination.name == "host02"  # re-placed, not retried
        assert job.attempts == 2
        assert job.failures and job.failures[0].attempt == 1
        assert not bed.scheduler.dead_letter
        assert bed.env.metrics.counter("cluster.jobs.replaced").total == 1
        [replace] = replace_instants(bed)
        assert (replace.args["old"], replace.args["new"],
                replace.args["attempt"]) == ("host01", "host02", 1)
        assert_settled(bed)

    def test_failure_record_is_structured(self):
        bed = recovering_cluster(**SLOW)
        injector = FaultInjector(
            bed.env, FaultPlan().crash("host01", at=0.1))
        injector.inject(bed.migrator)
        job = bed.scheduler.submit(bed.hosts[0].domains[0],
                                   bed.hosts[1], replaceable=True)
        bed.scheduler.drain([job])
        failure = job.failures[0]
        assert failure.destination == "host01"
        assert failure.phase.startswith("precopy")
        assert failure.error_type
        assert failure.at > 0.1  # recorded when the attempt died
        assert failure.phase in str(failure)

    def test_explicit_submission_retries_same_destination(self):
        bed = recovering_cluster(nhosts=3, **SMALL)
        bed.hosts[1].crashed = True
        job = bed.scheduler.submit(bed.hosts[0].domains[0],
                                   bed.hosts[1])  # not replaceable
        bed.scheduler.drain([job])
        assert job.status == "failed"
        assert job.destination is bed.hosts[1]  # never rerouted
        assert job.attempts == POLICY.max_attempts
        assert len(job.failures) == POLICY.max_attempts


class TestReplacementAccounting:
    """Admission re-placement follows the between-attempt rule: it bumps
    ``cluster.jobs.replaced``, emits one ``cluster:replace`` instant and
    leaves no inbound or uplink charge behind."""

    def test_admission_replacement_is_counted(self):
        bed = build_cluster(nhosts=4, vms_per_host=1, max_concurrent=1,
                            observe=True, **SMALL)
        # The blocker holds the only admission slot, so the evacuation
        # job queues while its planned destination crashes.
        blocker = bed.scheduler.submit(bed.hosts[3].domains[0],
                                       bed.hosts[2])
        [job] = bed.scheduler.evacuate(bed.hosts[0])
        assert job.destination.name == "host01"
        FaultInjector(bed.env, FaultPlan().crash(
            "host01", at=1e-4, down_for=1000.0)).inject(bed.migrator)
        bed.scheduler.drain([blocker, job])

        assert job.succeeded and job.destination.name != "host01"
        assert job.attempts == 1 and not job.failures
        replaces = replace_instants(bed)
        assert [(i.args["old"], i.args["new"], i.args["attempt"])
                for i in replaces] == [("host01", job.destination.name, 0)]
        replaced = bed.env.metrics.counter("cluster.jobs.replaced").total
        assert replaced == len(replaces) == 1
        assert_settled(bed)


class TestOneAttemptLoop:
    """Fail-fast and retried jobs share one attempt loop, so their
    failure records agree."""

    @pytest.mark.parametrize("retry", [None, RetryPolicy(max_attempts=3)],
                             ids=["no-policy", "max_attempts=3"])
    def test_non_retriable_failure_is_recorded(self, retry):
        bed = build_cluster(nhosts=3, vms_per_host=1, retry=retry,
                            observe=True, **SMALL)
        domain = bed.hosts[0].domains[0]
        # Not retriable: the request itself is invalid.
        job = bed.scheduler.submit(domain, domain.host)
        bed.scheduler.drain([job])

        assert job.status == "failed"
        assert isinstance(job.error, MigrationError)
        assert job.attempts == 1
        [failure] = job.failures
        assert failure.error_type == "MigrationError"
        assert failure.attempt == 1 and failure.phase == "unknown"
        assert bed.scheduler.dead_letter == [job]
        [letter] = [i for i in bed.env.tracer.instants
                    if i.name == "cluster:dead-letter"]
        assert letter.args["attempts"] == 1
        assert letter.args["failure"] == str(failure)


class TestDeadLetter:
    def test_exhausted_budget_lands_in_dead_letter(self):
        bed = recovering_cluster(nhosts=2, **SMALL)
        bed.hosts[1].crashed = True
        job = bed.scheduler.submit(bed.hosts[0].domains[0],
                                   bed.hosts[1])
        bed.scheduler.drain([job])
        assert job in bed.scheduler.dead_letter
        assert isinstance(job.error, ReproError)
        assert job.failure is job.failures[-1]

    def test_deadline_abandons_before_budget(self):
        bed = recovering_cluster(
            nhosts=2, retry=RetryPolicy(max_attempts=5, initial_backoff=10.0),
            **SMALL)
        bed.hosts[1].crashed = True
        job = bed.scheduler.submit(bed.hosts[0].domains[0],
                                   bed.hosts[1], deadline=1.0)
        bed.scheduler.drain([job])
        assert job.status == "failed"
        assert job in bed.scheduler.dead_letter
        assert len(job.failures) < 5  # gave up on the clock, not the count
        assert "deadline" in str(job.error)

    def test_single_attempt_failures_are_dead_lettered_too(self):
        # Even with recovery off the operator gets one triage list.
        bed = build_cluster(nhosts=2, vms_per_host=1, **SMALL)
        bed.hosts[1].crashed = True
        job = bed.scheduler.submit(bed.hosts[0].domains[0],
                                   bed.hosts[1])
        bed.scheduler.drain([job])
        assert bed.scheduler.dead_letter == [job]
        assert job.attempts == 1


class TestShedding:
    def test_submission_shed_while_fleet_melts(self):
        bed = recovering_cluster(nhosts=4, shed_threshold=0.5, **SMALL)
        mon = bed.scheduler.health
        for name in ("host02", "host03"):
            for _ in range(mon.failure_threshold):
                mon.record_failure(name)
        with pytest.raises(AdmissionRejected) as excinfo:
            bed.scheduler.submit(bed.hosts[0].domains[0],
                                 bed.hosts[1])
        assert excinfo.value.open_fraction == pytest.approx(0.5)
        assert bed.scheduler.shed_count == 1

    def test_admission_reopens_after_recovery(self):
        bed = recovering_cluster(nhosts=2, shed_threshold=0.5, **SMALL)
        mon = bed.scheduler.health
        for _ in range(mon.failure_threshold):
            mon.record_failure("host01")
        with pytest.raises(AdmissionRejected):
            bed.scheduler.submit(bed.hosts[0].domains[0],
                                 bed.hosts[1])
        bed.env.run(until=mon.recovery_time + 1.0)
        # Breaker lapsed to half-open: no longer counted as open.
        job = bed.scheduler.submit(bed.hosts[0].domains[0],
                                   bed.hosts[1])
        bed.scheduler.drain([job])
        assert job.succeeded

    def test_invalid_threshold_rejected(self):
        from repro.errors import MigrationError
        with pytest.raises(MigrationError, match="shed_threshold"):
            build_cluster(nhosts=2, vms_per_host=1, shed_threshold=1.5,
                          **SMALL)


class TestSLOAccounting:
    def test_report_counts_attempts_and_failure_kinds(self):
        bed = recovering_cluster(nhosts=3, **SMALL)
        bed.hosts[1].crashed = True
        doomed = bed.scheduler.submit(bed.hosts[0].domains[0],
                                      bed.hosts[1])
        fine = bed.scheduler.submit(bed.hosts[2].domains[0],
                                    bed.hosts[0])
        bed.scheduler.drain([doomed, fine])

        # Every attempt counted: the doomed job used its whole budget,
        # the fine one needed one.
        assert doomed.attempts == POLICY.max_attempts
        assert fine.attempts == 1
        assert doomed.attempts + fine.attempts == POLICY.max_attempts + 1
        # Exactly one dead letter, failed at init against the dead host.
        assert bed.scheduler.dead_letter == [doomed]
        assert doomed.status == "failed" and fine.succeeded
        assert len(doomed.failures) == POLICY.max_attempts
        assert doomed.failure is doomed.failures[-1]
        assert (doomed.failure.error_type, doomed.failure.phase) \
            == ("MigrationFailed", "init")
        assert doomed.failure.destination == "host01"
