"""ShardedCluster: monolithic equivalence, transplants, churn, SLO."""

import dataclasses

import pytest

from repro.cluster import (ChurnConfig, ChurnGenerator, build_cluster,
                           build_sharded_cluster, makespan_percentiles,
                           slo_report)
from repro.cluster.slo import default_tenant
from repro.errors import ReproError

SMALL = dict(nblocks=256, npages=64)


def mono_bed(nracks=2, hosts_per_rack=2, vms_per_host=2):
    return build_cluster(nhosts=nracks * hosts_per_rack,
                         vms_per_host=vms_per_host, wiring="rack",
                         rack_size=hosts_per_rack, **SMALL)


def sharded(nracks=2, hosts_per_rack=2, vms_per_host=2, **kw):
    return build_sharded_cluster(nracks=nracks,
                                 hosts_per_rack=hosts_per_rack,
                                 vms_per_host=vms_per_host, **SMALL, **kw)


def mono_ledger(bed):
    ledger = {}
    for duplex in bed.migrator.topology.links.values():
        for link in (duplex.forward, duplex.backward):
            if link.bytes_sent:
                ledger[link.name] = link.bytes_sent
    return dict(sorted(ledger.items()))


class TestGeometry:
    def test_host_names_and_order_match_monolithic(self):
        bed, cluster = mono_bed(), sharded()
        assert [h.name for h in cluster.hosts] == [h.name for h in bed.hosts]
        assert ([d.name for d in cluster.domains]
                == [d.name for d in bed.domains])

    def test_shard_ownership(self):
        cluster = sharded()
        assert cluster.shard_of("host00").name == "rack0"
        assert cluster.shard_of("host03").name == "rack1"
        with pytest.raises(ReproError):
            cluster.shard_of("host99")

    def test_lookahead_is_inter_rack_latency(self):
        cluster = sharded()
        assert cluster.engine.lookahead == cluster.inter_rack_latency


class TestEquivalence:
    def test_intra_rack_report_identical_to_monolithic(self):
        bed, cluster = mono_bed(), sharded()
        mono_job = bed.scheduler.submit(bed.domains[0], bed.host("host01"))
        bed.scheduler.drain([mono_job])
        shard_job = cluster.submit(cluster.domains[0], "host01")
        cluster.drain([shard_job])
        assert shard_job.succeeded
        assert (dataclasses.asdict(shard_job.report)
                == dataclasses.asdict(mono_job.report))
        assert cluster.link_ledger() == mono_ledger(bed)

    def test_cross_rack_report_and_ledger_identical_to_monolithic(self):
        bed, cluster = mono_bed(), sharded()
        mono_job = bed.scheduler.submit(bed.domains[0], bed.host("host02"))
        bed.scheduler.drain([mono_job])
        shard_job = cluster.submit(cluster.domains[0], "host02")
        cluster.drain([shard_job])
        assert shard_job.succeeded
        assert (dataclasses.asdict(shard_job.report)
                == dataclasses.asdict(mono_job.report))
        # Replica fabric links fold into the monolithic link names.
        assert cluster.link_ledger() == mono_ledger(bed)
        cluster.assert_conserved()

    def test_two_sharded_runs_are_deterministic(self):
        reports, ledgers = [], []
        for _ in range(2):
            cluster = sharded()
            jobs = [cluster.submit(cluster.domains[0], "host03"),
                    cluster.submit(cluster.domains[2], "host00")]
            cluster.drain(jobs)
            assert all(job.succeeded for job in jobs)
            reports.append([dataclasses.asdict(job.report) for job in jobs])
            ledgers.append(cluster.link_ledger())
        assert reports[0] == reports[1]
        assert ledgers[0] == ledgers[1]


class TestCrossRack:
    def test_domain_transplants_to_destination_shard(self):
        cluster = sharded()
        domain = cluster.domains[0]
        src_env = cluster.shard_of("host00").env
        dst_shard = cluster.shard_of("host03")
        job = cluster.submit(domain, "host03")
        cluster.drain([job])
        assert job.succeeded
        assert domain.host is cluster.host("host03")
        assert domain.name in [d.name for d in cluster.host("host03").domains]
        # The domain now lives in the destination shard's simulation.
        assert domain.env is dst_shard.env
        assert domain.env is not src_env
        assert cluster.engine.messages_delivered == 1

    def test_transplanted_domain_keeps_migrating(self):
        # After a shard hop the Lamport-merged clocks must keep stamps
        # monotonic: a follow-up intra-rack migration still verifies.
        cluster = sharded()
        domain = cluster.domains[0]
        job = cluster.submit(domain, "host03")
        cluster.drain([job])
        job2 = cluster.shard_of("host03").scheduler.submit(
            domain, cluster.host("host02"))
        cluster.drain([job2])
        assert job2.succeeded
        cluster.assert_conserved()

    def test_on_arrival_hook_runs_in_destination_env(self):
        cluster = sharded()
        seen = []
        job = cluster.submit(cluster.domains[0], "host02",
                             on_arrival=lambda env, dom:
                             seen.append((env, dom.name)))
        cluster.drain([job])
        assert seen == [(cluster.shard_of("host02").env, "vm-host00-0")]

    def test_surrogate_is_never_a_placement_candidate(self):
        # A committed cross-rack migration leaves a cached surrogate
        # host in the source shard's topology; placement must not offer
        # it (the real capacity lives in another shard).
        from repro.cluster import NoValidHost
        cluster = sharded()
        job = cluster.submit(cluster.domains[0], "host03")
        cluster.drain([job])
        assert job.succeeded
        shard = cluster.shard_of("host00")
        assert "host03" in shard.surrogates
        manager = shard.scheduler.hostmanager
        names = [s.name for s in manager.filter_hosts()]
        assert names == ["host00", "host01"]
        with pytest.raises(NoValidHost):
            manager.select(exclude=["host00", "host01"])

    def test_sharded_evacuation_stays_intra_rack(self):
        cluster = sharded(hosts_per_rack=3)
        jobs = cluster.evacuate("host00")
        cluster.drain(jobs)
        assert jobs and all(job.succeeded for job in jobs)
        assert all(job.destination.name in {"host01", "host02"}
                   for job in jobs)
        assert not cluster.host("host00").domains


class TestChurn:
    def test_config_validation(self):
        with pytest.raises(ReproError):
            ChurnConfig(duration=0.0)
        with pytest.raises(ReproError):
            ChurnConfig(arrival_rate=-1.0)

    def test_plan_is_deterministic_for_a_seed(self):
        config = ChurnConfig(duration=5.0, arrival_rate=2.0,
                             departure_rate=1.0, maintenance_interval=2.0,
                             rack_failure_times=(3.0,))
        plans = []
        for _ in range(2):
            generator = ChurnGenerator(sharded(seed=11), config)
            plans.append([(a.time, a.kind, a.shard_index, a.ordinal)
                          for a in generator.plan()])
        assert plans[0] == plans[1]
        assert plans[0] == sorted(plans[0])

    def test_seed_split_streams_independent_of_shard_count(self):
        # Shard 0's Poisson stream depends only on (seed, 0) and the
        # per-shard rate — not on how many other shards exist.
        def shard0_arrivals(nracks, cluster_rate):
            cluster = sharded(nracks=nracks, hosts_per_rack=2,
                              vms_per_host=1, seed=5)
            config = ChurnConfig(duration=10.0, arrival_rate=cluster_rate)
            return [a.time for a in ChurnGenerator(cluster, config).plan()
                    if a.shard_index == 0]

        assert shard0_arrivals(2, 2.0) == shard0_arrivals(3, 3.0)

    def test_rack_failure_times_validated(self):
        cluster = sharded()
        config = ChurnConfig(duration=5.0, rack_failure_times=(7.0,))
        with pytest.raises(ReproError):
            ChurnGenerator(cluster, config).plan()

    def test_churn_run_applies_and_conserves(self):
        cluster = sharded(hosts_per_rack=3)
        config = ChurnConfig(duration=8.0, arrival_rate=1.0,
                             departure_rate=0.5, maintenance_interval=3.0,
                             maintenance_hold=2.0,
                             rack_failure_times=(5.0,),
                             rack_failure_down_for=1.0)
        generator = ChurnGenerator(cluster, config)
        applied = generator.run()
        assert applied.get("maintenance", 0) >= 1
        assert applied.get("rack_failure", 0) == 1
        jobs = cluster.drain(generator.evacuation_jobs)
        assert all(job.status in ("done", "failed") for job in jobs)
        cluster.assert_conserved()
        # Maintenance windows expired and crashed racks recovered.
        assert all(host.available for host in cluster.hosts)

    def test_arrivals_attach_new_domains(self):
        cluster = sharded()
        before = len(cluster.domains)
        config = ChurnConfig(duration=5.0, arrival_rate=2.0)
        generator = ChurnGenerator(cluster, config)
        applied = generator.run()
        assert applied.get("arrival", 0) >= 1
        assert len(cluster.domains) == before + applied["arrival"]
        names = [d.name for d in cluster.domains]
        assert any(name.startswith("churn-rack") for name in names)


class TestSLO:
    @staticmethod
    def _job(name, submitted, ended, downtime=None, status="done"):
        from types import SimpleNamespace

        from repro.cluster.scheduler import MigrationJob

        job = MigrationJob(domain=SimpleNamespace(name=name),
                           destination=None)
        job.submitted_at = submitted
        job.ended_at = ended
        job.status = status
        if downtime is not None:
            job.report = SimpleNamespace(downtime=downtime)
        return job

    def test_makespan_percentiles(self):
        jobs = [self._job(f"t-{i}", 0.0, float(i + 1), downtime=0.01)
                for i in range(10)]
        pct = makespan_percentiles(jobs)
        assert pct["p50"] == pytest.approx(5.5)
        assert pct["p99"] == pytest.approx(9.91)
        assert makespan_percentiles([]) == {"p50": 0.0, "p95": 0.0,
                                            "p99": 0.0}

    def test_default_tenant_strips_ordinal(self):
        assert default_tenant("vm-host03-1") == "vm-host03"
        assert default_tenant("churn-rack0-7") == "churn-rack0"
        assert default_tenant("solo") == "solo"

    def test_budget_violation_and_summary(self):
        jobs = [self._job("acme-1", 0.0, 1.0, downtime=0.4),
                self._job("acme-2", 0.0, 2.0, downtime=0.4),
                self._job("beta-1", 0.0, 3.0, downtime=0.1)]
        report = slo_report(jobs, budgets={"acme": 0.5, "beta": 0.5})
        assert report.total == 3 and report.succeeded == 3
        assert report.makespan == pytest.approx(3.0)
        assert not report.ok
        assert [t.tenant for t in report.violations] == ["acme"]
        assert report.tenants["acme"].downtime == pytest.approx(0.8)
        assert "acme" in report.summary()

    def test_failed_migration_violates_regardless_of_budget(self):
        jobs = [self._job("acme-1", 0.0, 1.0, status="failed")]
        report = slo_report(jobs)
        assert report.failed == 1
        assert report.tenants["acme"].violated
        assert not report.ok

    def test_no_budget_means_no_downtime_violation(self):
        jobs = [self._job("acme-1", 0.0, 1.0, downtime=99.0)]
        assert slo_report(jobs).ok

    def test_slo_report_on_real_evacuation(self):
        cluster = sharded(hosts_per_rack=3)
        jobs = cluster.drain(cluster.evacuate("host00"))
        report = slo_report(jobs, default_budget=10.0)
        assert report.ok
        assert report.total == len(jobs)
        assert report.makespan == pytest.approx(cluster.makespan(jobs))
