"""ShardedCluster: monolithic equivalence, geometry, transplants."""

import dataclasses

import pytest

from repro.cluster import build_cluster, build_sharded_cluster
from repro.cluster.testbed import LINK_LATENCY
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
        assert cluster.engine.lookahead == LINK_LATENCY


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
        shard = cluster.shard_of("host00")
        jobs = shard.scheduler.evacuate(cluster.host("host00"))
        cluster.drain(jobs)
        assert jobs and all(job.succeeded for job in jobs)
        assert all(job.destination.name in {"host01", "host02"}
                   for job in jobs)
        assert not cluster.host("host00").domains
