"""The seeded chaos harness: reproducibility, invariant checking, and
the fixed smoke seeds CI relies on."""

import pytest

from repro.cluster import (ChaosConfig, ChaosReport, build_cluster,
                           check_invariants, run_chaos)
from repro.cluster.chaos import MODES, SEND_TIMEOUT, random_plan
from repro.errors import ReproError

import numpy as np

SMALL = dict(nblocks=256, npages=64)


class TestConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ReproError, match="mode"):
            ChaosConfig(mode="quantum")

    def test_rejects_degenerate_runs(self):
        with pytest.raises(ReproError, match="njobs"):
            ChaosConfig(njobs=0)
        with pytest.raises(ReproError, match="horizon"):
            ChaosConfig(horizon=0.0)


class TestRandomPlan:
    def test_same_seed_same_schedule(self):
        config = ChaosConfig(seed=7)
        a = random_plan(config, np.random.default_rng(7))
        b = random_plan(config, np.random.default_rng(7))
        assert a.partitions == b.partitions
        assert a.flaps == b.flaps
        assert a.crashes == b.crashes

    def test_different_seeds_differ(self):
        config = ChaosConfig()
        a = random_plan(config, np.random.default_rng(0))
        b = random_plan(config, np.random.default_rng(1))
        assert (a.partitions, a.flaps, a.crashes) != \
               (b.partitions, b.flaps, b.crashes)

    def test_counts_match_config(self):
        config = ChaosConfig(npartitions=2, nflaps=3, ncrashes=1)
        plan = random_plan(config, np.random.default_rng(0))
        assert len(plan.partitions) == 2
        assert len(plan.flaps) == 3
        assert len(plan.crashes) == 1
        assert plan.send_timeout == SEND_TIMEOUT

    def test_fault_times_land_inside_the_horizon(self):
        config = ChaosConfig(npartitions=4, nflaps=4, ncrashes=4)
        plan = random_plan(config, np.random.default_rng(3))
        ats = ([s.at for s in plan.partitions] + [s.at for s in plan.flaps]
               + [s.at for s in plan.crashes])
        assert all(0.0 <= at < config.horizon for at in ats)


class TestRunChaos:
    @pytest.mark.parametrize("mode", MODES)
    def test_smoke_seeds_hold_all_invariants(self, mode):
        for seed in (0, 1):
            report = run_chaos(ChaosConfig(seed=seed, mode=mode))
            assert report.ok, report.summary()
            assert report.faults >= 3
            assert len(report.jobs) == report.config.njobs
            assert report.succeeded + report.failed == len(report.jobs)
            assert report.dead_lettered == report.failed

    def test_same_seed_reproduces_exactly(self):
        """Twice in one process, on both engines: no state leaks between
        runs (module-level caches, say).  Domain ids count per process,
        so jobs are keyed by name."""
        def digest(report):
            return ([(job.domain.name, job.destination.name, job.status,
                      job.attempts, job.started_at, job.ended_at,
                      job.domain.host.name,
                      [(f.error_type, f.phase, f.at) for f in job.failures],
                      job.report.migrated_bytes if job.report else None)
                     for job in report.jobs],
                    report.violations, report.faults, report.dead_lettered)

        for mode in MODES:
            config = ChaosConfig(seed=2, mode=mode)
            assert digest(run_chaos(config)) == digest(run_chaos(config))

    def test_summary_names_seed_and_mode(self):
        report = run_chaos(ChaosConfig(seed=0, mode="monolithic"))
        assert "seed=0" in report.summary()
        assert "mode=monolithic" in report.summary()

    def test_violations_are_printed_in_the_summary(self):
        report = ChaosReport(config=ChaosConfig(), jobs=[],
                             violations=["placement: made up"])
        assert not report.ok
        assert "VIOLATION" in report.summary()
        assert "made up" in report.summary()


class TestCheckInvariants:
    def test_clean_cluster_is_green(self):
        bed = build_cluster(nhosts=3, vms_per_host=1, **SMALL)
        expected = {d.domain_id for d in bed.domains}
        job = bed.scheduler.submit(bed.hosts[0].domains[0],
                                   bed.hosts[1])
        bed.scheduler.drain([job])
        assert check_invariants(bed, expected) == []

    def test_detached_domain_is_a_placement_violation(self):
        bed = build_cluster(nhosts=2, vms_per_host=1, **SMALL)
        expected = {d.domain_id for d in bed.domains}
        lost = bed.hosts[0].domains[0]
        bed.hosts[0].detach_domain(lost.domain_id)
        violations = check_invariants(bed, expected)
        assert any("placement" in v and "0 hosts" in v for v in violations)

    def test_doubly_attached_domain_is_a_placement_violation(self):
        bed = build_cluster(nhosts=2, vms_per_host=1, **SMALL)
        expected = {d.domain_id for d in bed.domains}
        twin = bed.hosts[0].domains[0]
        _, vbd = bed.hosts[0].detach_domain(twin.domain_id)
        bed.hosts[0].attach_domain(twin, vbd)
        # Simulate a botched transplant: a second host thinks it owns
        # the domain too.
        bed.hosts[1]._domains[twin.domain_id] = twin
        violations = check_invariants(bed, expected)
        assert any("2 hosts" in v for v in violations)

    def test_missing_dead_letter_entry_is_a_violation(self):
        bed = build_cluster(nhosts=2, vms_per_host=1, **SMALL)
        expected = {d.domain_id for d in bed.domains}
        bed.hosts[1].crashed = True
        job = bed.scheduler.submit(bed.hosts[0].domains[0],
                                   bed.hosts[1])
        bed.scheduler.drain([job])
        assert job.status == "failed"
        bed.scheduler.dead_letter.clear()  # sabotage the triage list
        violations = check_invariants(bed, expected)
        assert any("dead-letter" in v for v in violations)
