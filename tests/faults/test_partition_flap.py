"""Topology-scale faults: partitions along rack boundaries and
deterministic link flapping — spec validation, plan narrowing, and
behaviour against a racked cluster."""

import pytest

from repro.cluster import build_cluster
from repro.errors import FaultError, ReproError
from repro.faults import FaultInjector, FaultPlan, FlapSpec, PartitionSpec

SMALL = dict(nblocks=256, npages=64)


def racked(**kw):
    """4 hosts in 2 racks: host00/host01 on rack0, host02/host03 on
    rack1, racks joined through 'core'."""
    return build_cluster(nhosts=4, vms_per_host=1, wiring="rack",
                         rack_size=2, **SMALL, **kw)


class TestPartitionSpec:
    def test_needs_nodes(self):
        with pytest.raises(FaultError, match="at least one node"):
            PartitionSpec(isolate=(), duration=1.0, at=0.0)

    def test_duration_must_be_positive(self):
        with pytest.raises(FaultError, match="duration"):
            PartitionSpec(isolate=("rack1",), duration=0.0, at=0.0)

    def test_requires_exactly_one_trigger(self):
        with pytest.raises(FaultError, match="exactly one"):
            PartitionSpec(isolate=("rack1",), duration=1.0)
        with pytest.raises(FaultError, match="exactly one"):
            PartitionSpec(isolate=("rack1",), duration=1.0, at=0.0,
                          phase="freeze")

    def test_isolate_is_sorted_and_deduped(self):
        spec = PartitionSpec(isolate=("b", "a", "b"), duration=1.0, at=0.0)
        assert spec.isolate == ("a", "b")


class TestFlapSpec:
    def test_times_must_be_positive(self):
        with pytest.raises(FaultError, match="down_time"):
            FlapSpec(down_time=0.0, at=0.0)
        with pytest.raises(FaultError, match="up_time"):
            FlapSpec(down_time=0.1, up_time=0.0, at=0.0)

    def test_count_must_be_at_least_one(self):
        with pytest.raises(FaultError, match="count"):
            FlapSpec(down_time=0.1, count=0, at=0.0)

    def test_link_needs_two_endpoints(self):
        with pytest.raises(FaultError, match="two node names"):
            FlapSpec(down_time=0.1, link=("rack0",), at=0.0)

    def test_windows_tile_the_episode(self):
        spec = FlapSpec(down_time=0.2, up_time=0.3, count=3, at=1.0)
        assert spec.windows(1.0) == [(1.0, 1.2), (1.5, 1.7), (2.0, 2.2)]


class TestPlanBuilders:
    def test_builders_chain_and_fill(self):
        plan = (FaultPlan()
                .partition(["rack1"], duration=1.0, at=0.5)
                .flap(down_time=0.1, up_time=0.1, count=2, at=0.2))
        assert len(plan.partitions) == 1
        assert len(plan.flaps) == 1
        assert not plan.empty
        assert plan.partitions[0].isolate == ("rack1",)

    def test_narrowed_to_keeps_link_faults_and_filters_crashes(self):
        plan = (FaultPlan()
                .partition(["rack1"], duration=1.0, at=0.5)
                .flap(down_time=0.1, up_time=0.1, at=0.2)
                .crash("host00", at=1.0)
                .crash("host02", at=1.0))
        narrowed = plan.narrowed_to(["host00", "host01"])
        assert [c.host for c in narrowed.crashes] == ["host00"]
        # A partition cut or fabric flap can touch any shard's replica
        # topology, so link-scoped specs survive narrowing untouched.
        assert narrowed.partitions == plan.partitions
        assert narrowed.flaps == plan.flaps


class TestPartitionBehaviour:
    def test_crossing_traffic_fails_interior_traffic_rides_it_out(self):
        bed = racked()
        plan = (FaultPlan(send_timeout=0.05)
                .partition(["rack1"], duration=30.0, at=0.0))
        FaultInjector(bed.env, plan).inject(bed.migrator)
        source = bed.hosts[0].domains[0]
        cross = bed.scheduler.submit(source, bed.hosts[2])
        intra = bed.scheduler.submit(bed.hosts[1].domains[0],
                                     bed.hosts[0])
        bed.scheduler.drain([cross, intra])

        assert cross.status == "failed"
        assert isinstance(cross.error, ReproError)
        assert source.host is bed.hosts[0] and source.running
        assert intra.succeeded  # rack0 is interior to the majority side

    def test_partition_heals_and_traffic_resumes(self):
        bed = racked()
        plan = (FaultPlan(send_timeout=10.0)
                .partition(["rack1"], duration=0.02, at=0.0))
        FaultInjector(bed.env, plan).inject(bed.migrator)
        job = bed.scheduler.submit(bed.hosts[0].domains[0],
                                   bed.hosts[2])
        bed.scheduler.drain([job])
        assert job.succeeded
        assert job.ended_at > 0.02  # stalled until the cut healed

    def test_partition_composes_with_crash(self):
        bed = racked()
        plan = (FaultPlan(send_timeout=0.05)
                .partition(["rack1"], duration=30.0, at=0.0)
                .crash("host01", at=0.01))
        FaultInjector(bed.env, plan).inject(bed.migrator)
        cross = bed.scheduler.submit(bed.hosts[0].domains[0],
                                     bed.hosts[2])
        bed.scheduler.drain([cross])
        assert cross.status == "failed"
        assert bed.hosts[1].crashed


class TestFlapBehaviour:
    def test_targeted_flap_only_affects_named_link(self):
        bed = racked()
        plan = (FaultPlan(send_timeout=0.05)
                .flap(down_time=30.0, up_time=0.5, count=1,
                      link=("rack1", "core"), at=0.0))
        FaultInjector(bed.env, plan).inject(bed.migrator)
        cross = bed.scheduler.submit(bed.hosts[0].domains[0],
                                     bed.hosts[2])
        intra = bed.scheduler.submit(bed.hosts[1].domains[0],
                                     bed.hosts[0])
        bed.scheduler.drain([cross, intra])
        assert cross.status == "failed"
        assert intra.succeeded

    def test_short_flaps_delay_but_deliver(self):
        calm = racked()
        ref = calm.scheduler.submit(calm.hosts[0].domains[0],
                                    calm.hosts[2])
        calm.scheduler.drain([ref])

        bed = racked()
        plan = (FaultPlan(send_timeout=10.0)
                .flap(down_time=0.01, up_time=0.01, count=3,
                      link=("rack0", "core"), at=0.0))
        FaultInjector(bed.env, plan).inject(bed.migrator)
        job = bed.scheduler.submit(bed.hosts[0].domains[0],
                                   bed.hosts[2])
        bed.scheduler.drain([job])
        assert job.succeeded
        assert job.ended_at > ref.ended_at

    def test_fabric_wide_flap_hits_every_inter_rack_link(self):
        bed = racked()
        plan = (FaultPlan(send_timeout=0.05)
                .flap(down_time=30.0, up_time=0.5, count=1, at=0.0))
        injector = FaultInjector(bed.env, plan).inject(bed.migrator)
        cross = bed.scheduler.submit(bed.hosts[0].domains[0],
                                     bed.hosts[2])
        bed.scheduler.drain([cross])
        assert cross.status == "failed"
        assert any("flap" in entry for _, entry in injector.log)
