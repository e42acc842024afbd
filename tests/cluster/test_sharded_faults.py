"""Faults against the sharded engine: per-shard plan splitting, clean
cross-rack failure, surrogate-transplant rollback, source crashes during
the freeze, and fault windows straddling the conservative lookahead
boundary."""

import pytest

from repro.cluster import (ChaosConfig, build_sharded_cluster,
                           check_invariants, run_chaos)
from repro.core import MigrationConfig
from repro.errors import MigrationFailed, ReproError
from repro.faults import FaultPlan
from repro.obs import install

SMALL = dict(nblocks=256, npages=64)
#: The engine's conservative window length (min inter-rack latency).
LOOKAHEAD = 100e-6


def sharded(**kw):
    return build_sharded_cluster(nracks=2, hosts_per_rack=2,
                                 vms_per_host=1, **SMALL, **kw)


def domain_on(cluster, host_name):
    (domain,) = [d for d in cluster.domains if d.host.name == host_name]
    return domain


class TestInjectFaults:
    def test_crashes_narrow_per_shard_link_faults_replicate(self):
        cluster = sharded()
        plan = (FaultPlan()
                .crash("host00", at=50.0)
                .crash("host02", at=50.0)
                .partition(["rack1"], duration=1.0, at=50.0))
        injectors = cluster.inject_faults(plan)
        assert len(injectors) == len(cluster.shards) == 2
        assert [c.host for c in injectors[0].plan.crashes] == ["host00"]
        assert [c.host for c in injectors[1].plan.crashes] == ["host02"]
        # Partition cuts can touch any shard's replica fabric, so every
        # shard keeps the full spec.
        assert all(inj.plan.partitions == plan.partitions
                   for inj in injectors)

    def test_double_injection_rejected(self):
        cluster = sharded()
        cluster.inject_faults(FaultPlan().crash("host00", at=50.0))
        with pytest.raises(ReproError, match="already injected"):
            cluster.inject_faults(FaultPlan())


class TestCrossRackFailure:
    def test_partition_fails_precopy_cleanly(self):
        cluster = sharded()
        expected = {d.domain_id for d in cluster.domains}
        plan = (FaultPlan(send_timeout=0.05)
                .partition(["rack1"], duration=60.0, at=0.0))
        cluster.inject_faults(plan)
        domain = domain_on(cluster, "host00")
        job = cluster.submit(domain, "host02")
        cluster.drain([job])

        assert job.status == "failed"
        assert domain.host.name == "host00"  # never left the source
        assert not cluster.surrogate_residents()
        assert job in cluster.shards[0].scheduler.dead_letter
        assert check_invariants(cluster, expected) == []

    def test_postcopy_failure_rolls_back_the_transplant(self):
        # The ISSUE's marquee case: the cut lands *after* handover, while
        # the domain sits on the surrogate pulling remainder blocks.  The
        # watcher must undo the stand-in attach so the domain is not
        # stranded in a shard it never really reached.
        cluster = sharded()
        expected = {d.domain_id for d in cluster.domains}
        plan = (FaultPlan(send_timeout=0.05)
                .flap(down_time=60.0, up_time=0.5, count=1,
                      link=("rack1", "core"), phase="postcopy"))
        cluster.inject_faults(plan)
        domain = domain_on(cluster, "host00")
        job = cluster.submit(domain, "host02")
        cluster.drain([job])

        assert job.status == "failed"
        assert domain.host is not None
        assert domain.host.name == "host00"  # rolled back, not stranded
        assert not getattr(domain.host, "is_surrogate", False)
        assert not cluster.surrogate_residents()
        assert not cluster._live_cross
        assert check_invariants(cluster, expected) == []

    def test_rollback_is_counted(self):
        cluster = sharded()
        for shard in cluster.shards:
            install(shard.env)
        plan = (FaultPlan(send_timeout=0.05)
                .flap(down_time=60.0, up_time=0.5, count=1,
                      link=("rack1", "core"), phase="postcopy"))
        cluster.inject_faults(plan)
        job = cluster.submit(domain_on(cluster, "host00"), "host02")
        cluster.drain([job])
        env = cluster.shards[0].env
        assert env.metrics.counter("cluster.cross_rack.rollbacks").total == 1


class TestSourceCrashDuringFreeze:
    """A source crash must fail its migration with ``MigrationFailed``,
    never let the freeze reach the bitmap harvest and raise
    ``StorageError`` because the crash dropped the tracking bitmap."""

    @pytest.mark.parametrize("seed", [592, 1139, 1411, 9028])
    def test_queued_freeze_send_does_not_outlive_its_source(self, seed):
        # Each seed crashes a source after its last freeze-phase message
        # cleared the source's own link but while the message still sat
        # in a congested rack uplink queue.  The send must not return to
        # the migration on the dead host.
        report = run_chaos(ChaosConfig(
            seed=seed, mode="sharded", nracks=8, hosts_per_rack=8,
            vms_per_host=2, njobs=64))
        assert report.ok, report.summary()
        assert report.failed >= 1
        failures = [job.error for job in report.jobs if not job.succeeded]
        assert all(isinstance(err, MigrationFailed) for err in failures)

    def test_crash_and_restart_before_harvest_fails_the_attempt(self):
        # No send between the crash and the harvest: the source dies and
        # restarts inside the suspend overhead, so only the harvest can
        # notice that the tracking bitmap went with it.
        cfg = MigrationConfig(include_memory=False, suspend_overhead=0.05)
        cluster = build_sharded_cluster(nracks=2, hosts_per_rack=2,
                                        vms_per_host=1, config=cfg, **SMALL)
        expected = {d.domain_id for d in cluster.domains}
        cluster.inject_faults(FaultPlan().crash(
            "host00", phase="freeze", offset=0.01, down_for=0.02))
        domain = domain_on(cluster, "host00")
        job = cluster.submit(domain, "host02")
        cluster.drain([job])

        assert job.status == "failed"
        assert isinstance(job.error, MigrationFailed)
        assert job.error.report.extra["failed_phase"] == "freeze"
        assert domain.host.name == "host00"
        assert domain.running
        assert check_invariants(cluster, expected) == []


class TestLookaheadWindowBoundaries:
    """Satellite: fault windows must behave identically whether their
    edges land on, inside, or across the sharded engine's conservative
    synchronization windows (multiples of the inter-rack lookahead)."""

    def _delayed_cross(self, at, down_time):
        cluster = sharded()
        expected = {d.domain_id for d in cluster.domains}
        plan = (FaultPlan(send_timeout=60.0)
                .flap(down_time=down_time, up_time=0.5, count=1,
                      link=("rack0", "core"), at=at))
        cluster.inject_faults(plan)
        job = cluster.submit(domain_on(cluster, "host00"), "host02")
        cluster.drain([job])
        assert job.succeeded
        assert check_invariants(cluster, expected) == []
        return job.ended_at

    def test_window_straddling_fault_delays_and_delivers(self):
        # Starts mid-window, ends mid-window, spans several boundaries.
        self._delayed_cross(at=7.5 * LOOKAHEAD, down_time=3.5 * LOOKAHEAD)

    def test_fault_edges_on_exact_boundaries(self):
        self._delayed_cross(at=10 * LOOKAHEAD, down_time=4 * LOOKAHEAD)

    def test_sub_lookahead_fault_inside_one_window(self):
        self._delayed_cross(at=5.25 * LOOKAHEAD, down_time=0.5 * LOOKAHEAD)

    def test_boundary_alignment_does_not_change_the_outcome(self):
        # The same outage shifted by a fraction of a window must cost the
        # same wall-clock give or take the shift itself: conservative
        # windowing may quantize *processing*, never *physics*.
        base = self._delayed_cross(at=8 * LOOKAHEAD,
                                   down_time=6 * LOOKAHEAD)
        shifted = self._delayed_cross(at=8.5 * LOOKAHEAD,
                                      down_time=6 * LOOKAHEAD)
        assert shifted == pytest.approx(base, abs=LOOKAHEAD)

    def test_failing_fault_across_boundary_fails_cleanly(self):
        cluster = sharded()
        expected = {d.domain_id for d in cluster.domains}
        plan = (FaultPlan(send_timeout=0.05)
                .flap(down_time=60.0, up_time=0.5, count=1,
                      link=("rack1", "core"), at=3.5 * LOOKAHEAD))
        cluster.inject_faults(plan)
        domain = domain_on(cluster, "host00")
        job = cluster.submit(domain, "host02")
        cluster.drain([job])
        assert job.status == "failed"
        assert domain.host.name == "host00"
        assert check_invariants(cluster, expected) == []
