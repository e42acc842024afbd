"""Property-based tests on the migration core's central invariants.

The load-bearing property of the whole paper: after a migration, every
block the destination has received holds the source's version or a newer
one the guest wrote there, and no transfer ever overwrote such a write.
We drive randomized workloads through full TPM and on-demand migrations
and check it holds for every schedule hypothesis finds.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import MigrationConfig, Migrator
from repro.sim import Environment
from repro.storage import GenerationClock, PhysicalDisk
from repro.units import MB, MiB
from repro.vm import Domain, GuestMemory, Host

NBLOCKS = 600
NPAGES = 128


def build(seed_cfg):
    env = Environment()
    clock = GenerationClock()
    cfg = MigrationConfig(chunk_blocks=seed_cfg["chunk_blocks"],
                          disk_dirty_threshold_blocks=8,
                          mem_dirty_threshold_pages=8,
                          mem_chunk_pages=64,
                          push_chunk_blocks=seed_cfg["push_chunk"],
                          bitmap_layout=seed_cfg["layout"],
                          suspend_overhead=0.0, resume_overhead=0.0)
    src = Host(env, "src", PhysicalDisk(env, 100 * MiB, 100 * MiB, 0.1e-3),
               clock)
    dst = Host(env, "dst", PhysicalDisk(env, 100 * MiB, 100 * MiB, 0.1e-3),
               clock)
    vbd = src.prepare_vbd(NBLOCKS)
    vbd.write(0, NBLOCKS)
    domain = Domain(env, GuestMemory(NPAGES, clock=clock))
    src.attach_domain(domain, vbd)
    migrator = Migrator(env, cfg)
    migrator.connect(src, dst, bandwidth=125 * MB, latency=50e-6)
    return env, src, dst, domain, migrator, cfg


workload_params = st.fixed_dictionaries({
    "seed": st.integers(0, 10_000),
    "interval": st.sampled_from([0.001, 0.003, 0.01]),
    "nblocks": st.integers(1, 8),
    "region": st.integers(20, NBLOCKS),
    "read_mix": st.booleans(),
})

config_params = st.fixed_dictionaries({
    "chunk_blocks": st.sampled_from([32, 128, 512]),
    "push_chunk": st.sampled_from([1, 4, 16]),
    "layout": st.sampled_from(["flat", "layered"]),
})


def guest_process(env, domain, params):
    rng = np.random.default_rng(params["seed"])

    def proc(env):
        while True:
            yield from domain.ensure_running()
            block = int(rng.integers(0, params["region"] - params["nblocks"] + 1))
            yield from domain.write(block, params["nblocks"])
            if params["read_mix"]:
                yield from domain.read(
                    int(rng.integers(0, NBLOCKS - 1)))
            yield from domain.ensure_running()
            domain.touch_memory(rng.integers(0, NPAGES, size=4))
            yield env.timeout(params["interval"])

    return env.process(proc(env))


class TestMigrationInvariants:
    @given(workload_params, config_params,
           st.sampled_from(["tpm", "on-demand"]))
    @settings(max_examples=20, deadline=None)
    def test_consistency_modulo_guest_writes(self, wl, cfg_params, scheme):
        env, src, dst, domain, migrator, cfg = build(cfg_params)
        guest_process(env, domain, wl)
        src_vbd = src.vbd_of(domain.domain_id)
        proc = migrator.migrate_process(domain, dst, scheme=scheme)
        report = env.run(until=proc)
        assert report.consistency_verified
        # Downtime is always a small fraction of total time (live migration).
        assert report.downtime < report.total_migration_time

        # The shared rule, checked again after the guest ran on: every
        # delivered block holds the source's version or a newer guest
        # write (the import guard raises if a transfer overwrote one).
        migration = migrator.migrations[-1]
        pending = None
        if scheme == "on-demand":
            env.run(until=env.now + 0.2)
            # Freeze the guest and let its in-flight I/O land first: a
            # write that cancelled a fetch holds its data only then.
            domain.suspend()
            env.run(until=env.process(
                dst.driver_of(domain.domain_id).quiesce()))
            pending = migration.synchronizer.transferred_bitmap
            migration.stop()
        lagging = dst.vbd_of(domain.domain_id).lagging_blocks(src_vbd)
        if pending is not None and lagging.size:
            lagging = lagging[~pending.test_many(lagging)]
        assert lagging.size == 0

    @given(workload_params, config_params)
    @settings(max_examples=10, deadline=None)
    # A guest write during the IM leg's init handshake (after the divergence
    # set was chosen, before pre-copy tracking started) was once lost.
    @example(wl={"seed": 0, "interval": 0.003, "nblocks": 1, "region": 274,
                 "read_mix": False},
             cfg_params={"chunk_blocks": 128, "push_chunk": 16,
                         "layout": "flat"})
    @example(wl={"seed": 0, "interval": 0.003, "nblocks": 1, "region": 274,
                 "read_mix": False},
             cfg_params={"chunk_blocks": 128, "push_chunk": 16,
                         "layout": "layered"})
    def test_round_trip_preserves_consistency(self, wl, cfg_params):
        env, src, dst, domain, migrator, cfg = build(cfg_params)
        guest_process(env, domain, wl)
        p1 = migrator.migrate_process(domain, dst)
        env.run(until=p1)
        env.run(until=env.now + 0.5)
        p2 = migrator.migrate_process(domain, src)
        back = env.run(until=p2)
        assert back.incremental
        assert back.consistency_verified

    @given(workload_params)
    @settings(max_examples=10, deadline=None)
    def test_migrated_data_bounded_below_by_state_size(self, wl):
        env, src, dst, domain, migrator, cfg = build(
            {"chunk_blocks": 128, "push_chunk": 8, "layout": "flat"})
        guest_process(env, domain, wl)
        proc = migrator.migrate_process(domain, dst)
        report = env.run(until=proc)
        state_size = NBLOCKS * 4096 + NPAGES * 4096
        assert report.migrated_bytes >= state_size
