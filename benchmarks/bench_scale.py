#!/usr/bin/env python3
"""Datacenter scale: monolithic engine vs sharded per-rack engines.

Runs the *same* evacuation wave twice — once on a single
:class:`~repro.sim.Environment` (``build_cluster(wiring="rack")``) and
once on :class:`~repro.cluster.sharded.ShardedCluster` (one Environment
per rack under conservative lookahead) — and compares wall clock,
events/sec and simulated makespan.

The scenario is intentionally heap-heavy: every VM runs a background
"ticker" that rewrites two disk blocks every 50 simulated milliseconds
(10,000 concurrent processes at full geometry), while each rack
evacuates its first ``--evacuate-per-rack`` VMs to rack-local
destinations.  All migrations are intra-rack, so the sharded engine
stays on its wide-window fast path; the win comes from each shard's
smaller pending set and working set (calendar inserts, heap pops, disk
grants), not parallelism (both legs are single-threaded).

Both runs make identical simulated decisions, so the makespans must
match exactly — the bench asserts it, making this a correctness check
of the sharded engine at scale, not just a stopwatch.

Usage::

    python benchmarks/bench_scale.py            # 1,000 hosts / 10,000 VMs
    python benchmarks/bench_scale.py --smoke    # 64 hosts, CI-sized
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.cluster import (assert_conserved, build_cluster,  # noqa: E402
                           build_sharded_cluster)
from repro.units import fmt_time  # noqa: E402

#: Small VMs: the bench stresses orchestration volume, not copy volume.
NBLOCKS = 256
NPAGES = 32
TICK_INTERVAL = 0.05
FULL = dict(racks=25, hosts_per_rack=40, vms_per_host=10)
SMOKE = dict(racks=4, hosts_per_rack=16, vms_per_host=2)
EVACUATE_PER_RACK = 12


def start_ticker(env, domain, ordinal: int, nblocks: int = NBLOCKS) -> None:
    """Perpetual background writer: 2 blocks every 50 ms, at a per-VM
    offset (``ordinal`` is the VM's creation index — identical across
    the monolithic and sharded builds, unlike ``domain_id``)."""
    base = (ordinal * 13) % (nblocks - 4)

    def proc(env):
        while True:
            yield from domain.write(base, 2)
            yield env.timeout(TICK_INTERVAL)

    env.process(proc(env), name=f"ticker:{domain.name}")


def plan_wave(rack_hosts: list[list], per_rack: int) -> list[tuple]:
    """(vm, destination host name) moves: each rack's first ``per_rack``
    VMs go round-robin to the rack's non-source hosts.  Pure function of
    host/VM names, so both builds plan the identical wave."""
    moves = []
    for hosts in rack_hosts:
        vms = [dom for host in hosts
               for dom in sorted(host.domains, key=lambda d: d.domain_id)]
        victims = vms[:per_rack]
        sources = {vm.host.name for vm in victims}
        targets = [host for host in hosts if host.name not in sources]
        for i, vm in enumerate(victims):
            moves.append((vm, targets[i % len(targets)].name))
    return moves


def run_monolithic(racks: int, hosts_per_rack: int, vms_per_host: int,
                   per_rack: int) -> dict:
    bed = build_cluster(nhosts=racks * hosts_per_rack,
                        vms_per_host=vms_per_host, wiring="rack",
                        rack_size=hosts_per_rack, nblocks=NBLOCKS,
                        npages=NPAGES, max_concurrent=10 ** 6)
    for ordinal, domain in enumerate(bed.domains):
        start_ticker(bed.env, domain, ordinal)
    rack_hosts = [bed.hosts[r * hosts_per_rack:(r + 1) * hosts_per_rack]
                  for r in range(racks)]
    moves = plan_wave(rack_hosts, per_rack)
    by_name = {host.name: host for host in bed.hosts}
    start = perf_counter()
    jobs = [bed.scheduler.submit(vm, by_name[dest]) for vm, dest in moves]
    bed.scheduler.drain(jobs)
    wall = perf_counter() - start
    assert all(job.succeeded for job in jobs), \
        [job.error for job in jobs if not job.succeeded]
    assert_conserved(bed.migrator.migrations)
    return dict(wall_s=wall, events=bed.env.events_processed,
                sim_time=bed.env.now, nvms=len(jobs),
                makespan=bed.scheduler.makespan(jobs))


def run_sharded(racks: int, hosts_per_rack: int, vms_per_host: int,
                per_rack: int) -> dict:
    cluster = build_sharded_cluster(nracks=racks,
                                    hosts_per_rack=hosts_per_rack,
                                    vms_per_host=vms_per_host,
                                    nblocks=NBLOCKS, npages=NPAGES,
                                    max_concurrent=10 ** 6)
    ordinal = 0
    for shard in cluster.shards:
        for host in shard.hosts:
            for domain in sorted(host.domains, key=lambda d: d.domain_id):
                start_ticker(shard.env, domain, ordinal)
                ordinal += 1
    moves = plan_wave([shard.hosts for shard in cluster.shards], per_rack)
    start = perf_counter()
    jobs = [cluster.submit(vm, dest) for vm, dest in moves]
    cluster.drain(jobs)
    wall = perf_counter() - start
    assert all(job.succeeded for job in jobs), \
        [job.error for job in jobs if not job.succeeded]
    cluster.assert_conserved()
    return dict(wall_s=wall, events=cluster.events_processed,
                sim_time=cluster.engine.now, nvms=len(jobs),
                makespan=cluster.makespan(jobs),
                windows=cluster.engine.windows)


def compare_once(racks: int, hosts_per_rack: int, vms_per_host: int,
                 per_rack: int = EVACUATE_PER_RACK) -> dict:
    """One mono + one sharded run of the identical wave; asserts the
    simulated makespans agree to float precision.  The legs build
    independent testbeds, and ``gc.collect()`` between them keeps the
    sharded leg from paying GC debt run up by the monolithic one."""
    mono = run_monolithic(racks, hosts_per_rack, vms_per_host, per_rack)
    gc.collect()
    shard = run_sharded(racks, hosts_per_rack, vms_per_host, per_rack)
    gc.collect()
    drift = abs(mono["makespan"] - shard["makespan"])
    assert drift < 1e-9, (
        f"sharded diverged from monolithic: makespan "
        f"{shard['makespan']!r} vs {mono['makespan']!r}")
    return dict(mono=mono, sharded=shard,
                speedup=mono["wall_s"] / shard["wall_s"]
                if shard["wall_s"] > 0 else float("inf"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="64-host geometry (seconds, CI-sized)")
    parser.add_argument("--racks", type=int, default=None)
    parser.add_argument("--hosts-per-rack", type=int, default=None)
    parser.add_argument("--vms-per-host", type=int, default=None)
    parser.add_argument("--evacuate-per-rack", type=int,
                        default=EVACUATE_PER_RACK)
    args = parser.parse_args(argv)

    geo = dict(SMOKE if args.smoke else FULL)
    for key in ("racks", "hosts_per_rack", "vms_per_host"):
        override = getattr(args, key)
        if override is not None:
            geo[key] = override
    nhosts = geo["racks"] * geo["hosts_per_rack"]
    nvms = nhosts * geo["vms_per_host"]
    moved = geo["racks"] * args.evacuate_per_rack
    print(f"scale bench: {nhosts} hosts / {nvms} VMs in {geo['racks']} "
          f"racks; evacuating {moved} VMs intra-rack "
          f"(+{nvms} background tickers)")

    out = compare_once(per_rack=args.evacuate_per_rack, **geo)
    rows = [("monolithic", out["mono"]), ("sharded", out["sharded"])]
    print(f"{'engine':<12} {'wall':>10} {'events':>10} {'ev/s':>10} "
          f"{'sim makespan':>14}")
    for label, res in rows:
        print(f"{label:<12} {res['wall_s'] * 1e3:8.1f}ms "
              f"{res['events']:>10} "
              f"{res['events'] / res['wall_s'] / 1e3:>8.1f}k "
              f"{fmt_time(res['makespan']):>14}")
    print(f"speedup: {out['speedup']:.2f}x "
          f"({out['sharded']['windows']} sync windows); "
          f"makespans identical; byte ledgers conserved on both engines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
