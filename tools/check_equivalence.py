#!/usr/bin/env python3
"""Equivalence gate for simulator optimizations.

Hot-path work (engine fast lanes, cached bitmap popcounts, vectorized
dirty-marking, ...) is only admissible when it is *behavior-preserving*:
the optimized simulator must produce :class:`~repro.core.MigrationReport`
objects bit-identical to fixtures captured before the optimization.  This
script runs a fixed set of deterministic scenarios — all five migration
schemes in ``SCHEMES``, one fault-injected incremental-retry run, one
incremental-migration walk among three ring-wired hosts, two
cluster waves (sharded against monolithic, and a HostManager placement
burst through a host crash and a maintenance window), and a delta-cached
transfer stack at two cache sizes — and compares every field of every
report (floats included, exactly) against
``tests/fixtures/equivalence.json``.

Usage::

    PYTHONPATH=src python tools/check_equivalence.py            # verify
    PYTHONPATH=src python tools/check_equivalence.py --capture  # re-baseline

``--capture`` rewrites the fixture file from the current code and is only
legitimate when the simulation semantics intentionally changed (new
scheme behaviour, changed defaults) — never to paper over an optimization
that drifted.  The CI job runs the verify mode on every push.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

FIXTURE_PATH = os.path.join(os.path.dirname(__file__), "..", "tests",
                            "fixtures", "equivalence.json")

#: Bump when scenarios themselves change (forces an explicit re-capture).
SCENARIO_VERSION = 1


def _report_dict(report) -> dict:
    """A plain-JSON projection of a MigrationReport (exact floats)."""
    return dataclasses.asdict(report)


def _run_scheme(scheme: str) -> dict:
    from repro.analysis.experiments import run_baseline_experiment

    report, bed, _migration = run_baseline_experiment(
        scheme, workload="specweb", scale=0.01, seed=0)
    return {"report": _report_dict(report),
            "final_now": bed.env.now,
            "workload_bytes": bed.workload.bytes_processed}


def _run_fault_retry() -> dict:
    from repro.analysis.experiments import build_testbed
    from repro.core import MigrationRetrier, RetryPolicy
    from repro.faults import FaultInjector, FaultPlan

    bed = build_testbed("specweb", scale=0.01, seed=0)
    bed.start_workload()
    bed.run_for(5.0)
    # Kill the first attempt mid disk pre-copy; the retry resumes from the
    # surviving tracking bitmap (incremental), so the fixture covers the
    # failure-teardown path *and* the IM resume path.
    plan = (FaultPlan(send_timeout=0.05)
            .blackout(duration=0.5, phase="precopy-disk", offset=0.05))
    FaultInjector(bed.env, plan).inject(bed.migrator)
    retrier = MigrationRetrier(bed.migrator, RetryPolicy(
        max_attempts=3, initial_backoff=0.3, incremental=True))
    proc = retrier.migrate_process(bed.domain, bed.destination,
                                   workload_name=bed.workload.name)
    report = bed.env.run(until=proc)
    if report.attempts < 2:
        raise AssertionError(
            "fault-retry scenario did not actually fail+retry "
            f"(attempts={report.attempts}); fixture would be meaningless")
    return {"report": _report_dict(report),
            "final_now": bed.env.now,
            "workload_bytes": bed.workload.bytes_processed}


#: The IM scenario's hops as (host label, scheme); "A" is the testbed's
#: source.  A ring A->B->C->A, a B->A round trip, then one non-IM hop.
_IM_HOPS = (("B", "tpm"), ("C", "tpm"), ("A", "tpm"), ("B", "tpm"),
            ("A", "tpm"), ("C", "freeze-and-copy"))
#: Which of those hops are incremental, per ``multi_host_im`` setting.
_IM_EXPECTED = {True: [False, False, True, True, True, False],
                False: [False, False, False, False, True, False]}


def _run_im_ring() -> dict:
    """Incremental migration among three ring-wired hosts with a writer,
    under multi-host IM and under the paper's single-host IM.  Pins which
    divergence bitmap each hop consumes, so a change to how they are
    named, carried or pruned shows up as a changed report."""
    from repro.analysis.experiments import build_testbed
    from repro.cluster.testbed import cluster_host

    runs = {}
    for label, multi in (("multi-host", True), ("single-host", False)):
        bed = build_testbed("specweb", scale=0.01, seed=0)
        bed.migrator.multi_host_im = multi
        third = cluster_host(bed.env, "third", bed.source.clock)
        bed.migrator.connect(bed.destination, third)
        bed.migrator.connect(third, bed.source)
        hosts = {"A": bed.source, "B": bed.destination, "C": third}
        bed.start_workload()
        reports = []
        for host, scheme in _IM_HOPS:
            bed.run_for(2.0)
            proc = bed.migrator.migrate_process(
                bed.domain, hosts[host], workload_name=bed.workload.name,
                scheme=scheme)
            reports.append(bed.env.run(until=proc))
        incremental = [report.incremental for report in reports]
        if incremental != _IM_EXPECTED[multi]:
            raise AssertionError(
                f"IM ring ({label}) took incremental hops {incremental}, "
                f"expected {_IM_EXPECTED[multi]}; fixture would be "
                "meaningless")
        runs[label] = {"reports": [_report_dict(r) for r in reports],
                       "final_now": bed.env.now,
                       "workload_bytes": bed.workload.bytes_processed}
    return runs


#: The sharded-equivalence wave: (VM name, destination host name).
#: Two contending intra-rack flows per rack plus one cross-rack
#: migration that transplants between shards through the core.
_SHARDED_MOVES = (
    ("vm-host00-0", "host01"),
    ("vm-host00-1", "host01"),
    ("vm-host03-0", "host04"),
    ("vm-host03-1", "host04"),
    ("vm-host02-0", "host05"),
)


def _ledger(topology) -> dict:
    """Directional link name -> bytes sent (non-zero links only)."""
    ledger = {}
    for duplex in topology.links.values():
        for link in (duplex.forward, duplex.backward):
            if link.bytes_sent:
                ledger[link.name] = ledger.get(link.name, 0) + link.bytes_sent
    return dict(sorted(ledger.items()))


def _run_sharded_cluster() -> dict:
    """The same 2-rack migration wave on the monolithic engine and on
    the sharded per-rack engine; asserts reports and byte ledgers are
    identical, then fixtures the (shared) result."""
    from repro.cluster import build_cluster, build_sharded_cluster

    bed = build_cluster(nhosts=6, vms_per_host=2, wiring="rack",
                        rack_size=3, nblocks=512, npages=64,
                        max_concurrent=8)
    by_name = {domain.name: domain for domain in bed.domains}
    mono_jobs = [bed.scheduler.submit(by_name[vm], bed.host(dest))
                 for vm, dest in _SHARDED_MOVES]
    bed.scheduler.drain(mono_jobs)
    mono = {"reports": [_report_dict(job.report) for job in mono_jobs],
            "makespan": bed.scheduler.makespan(mono_jobs),
            "ledger": _ledger(bed.migrator.topology)}

    cluster = build_sharded_cluster(nracks=2, hosts_per_rack=3,
                                    vms_per_host=2, nblocks=512,
                                    npages=64, max_concurrent=8)
    by_name = {domain.name: domain for domain in cluster.domains}
    shard_jobs = [cluster.submit(by_name[vm], dest)
                  for vm, dest in _SHARDED_MOVES]
    cluster.drain(shard_jobs)
    cluster.assert_conserved()
    sharded = {"reports": [_report_dict(job.report) for job in shard_jobs],
               "makespan": cluster.makespan(shard_jobs),
               "ledger": cluster.link_ledger()}

    diffs: list = []
    _diff("sharded-vs-mono", json.loads(json.dumps(mono)),
          json.loads(json.dumps(sharded)), diffs)
    if diffs:
        raise AssertionError(
            "sharded engine diverged from monolithic on the fixture "
            "wave:\n    " + "\n    ".join(diffs[:20]))
    return mono


def _run_placement_burst() -> dict:
    """Pipeline-placed moves on a monolithic 3-rack cluster: a burst of
    ``place()`` + ``submit(replaceable=True)`` with a host crash and a
    maintenance window landing mid-burst, then one evacuation and one
    rebalance.  Pins every placement decision the HostManager makes,
    including admission-time re-placement of jobs whose destination
    went away."""
    from repro.cluster import ClusterScheduler, HostManager, build_cluster

    bed = build_cluster(nhosts=9, vms_per_host=2, wiring="rack",
                        rack_size=3, nblocks=512, npages=64,
                        max_concurrent=3)
    topology = bed.migrator.topology
    # A richer pipeline than the default: capacity, uplink headroom and
    # three weighers, on a scheduler that rewires the manager onto its
    # own inbound map.
    manager = HostManager(topology, capacity=4, link_headroom=2,
                          locality=0.5, spread=0.25)
    scheduler = ClusterScheduler(bed.env, bed.migrator, max_concurrent=3,
                                 config=bed.config, hostmanager=manager)
    domains = sorted(bed.domains, key=lambda d: d.domain_id)
    movers = [domains[i] for i in (0, 3, 7, 8, 11, 13, 16)]

    burst, chosen = [], []
    for i, domain in enumerate(movers):
        if i == 3:
            # Mid-burst: the first pick dies and the second drains, so
            # their queued jobs are re-placed at admission.
            bed.host(chosen[0]).crash()
            bed.host(chosen[1]).enter_maintenance()
        destination = scheduler.place(domain)
        chosen.append(destination.name)
        burst.append(scheduler.submit(domain, destination,
                                      replaceable=True))
    scheduler.drain(burst)
    bed.host(chosen[0]).restart()
    evacuated = scheduler.evacuate(bed.host("host04"))
    scheduler.drain(evacuated)
    bed.host(chosen[1]).exit_maintenance()
    rebalanced = scheduler.rebalance()
    scheduler.drain(rebalanced)

    def outcome(jobs) -> list:
        return [{"domain": job.domain.name,
                 "destination": job.destination.name,
                 "status": job.status,
                 "ended_at": job.ended_at,
                 "report": (_report_dict(job.report)
                            if job.report is not None else None)}
                for job in jobs]

    return {"chosen": chosen,
            "burst": outcome(burst),
            "evacuate": outcome(evacuated),
            "rebalance": outcome(rebalanced),
            "loads": {host.name: len(host.domains) for host in bed.hosts},
            "final_now": bed.env.now,
            "ledger": _ledger(topology)}


def _run_delta_stack() -> dict:
    """Rewrite-heavy bonnie migration over 4 multifd lanes with
    auto-converge and an XBZRLE-style delta cache at two sizes.  Pins
    every delta hit, miss and eviction through the report and the
    ``delta_disk``/``delta_mem`` summaries."""
    from repro.analysis.experiments import FULL_DISK_BLOCKS, build_testbed
    from repro.core import MigrationConfig
    from repro.units import MiB

    scale = 0.01
    vbd_mb = max(int(FULL_DISK_BLOCKS * scale), 256) * 4096 / MiB
    runs = {}
    # "vbd" covers the whole device, so it never evicts; 8 MiB is 2,048
    # blocks, fewer than the ~3,600 bonnie re-dirties, so it evicts and
    # still hits.
    for label, cache_mb in (("vbd", vbd_mb), ("8mb", 8.0)):
        config = MigrationConfig(delta_cache_mb=cache_mb,
                                 multifd_channels=4, auto_converge=True)
        bed = build_testbed("bonnie", scale=scale, seed=0, config=config)
        bed.start_workload()
        bed.run_for(10.0)
        report = bed.migrate()
        disk = report.extra["delta_disk"]
        if (disk["evictions"] > 0) != (label != "vbd") or not disk["hits"]:
            raise AssertionError(
                f"delta-stack run {label!r} did not exercise its path "
                f"({disk}); fixture would be meaningless")
        runs[label] = {
            "report": _report_dict(report),
            "delta_disk": disk,
            "delta_mem": report.extra["delta_mem"],
            "final_now": bed.env.now,
            "workload_bytes": bed.workload.bytes_processed}
    return runs


def scenarios() -> dict:
    """Name -> thunk for every fixture scenario (deterministic order)."""
    from repro.core import SCHEMES

    table = {}
    for scheme in SCHEMES:
        table[f"scheme:{scheme}"] = (
            lambda scheme=scheme: _run_scheme(scheme))
    table["fault-retry:incremental"] = _run_fault_retry
    table["im:multi-host-ring"] = _run_im_ring
    table["cluster:sharded-vs-monolithic"] = _run_sharded_cluster
    table["cluster:placement-burst"] = _run_placement_burst
    table["transfer:delta-stack"] = _run_delta_stack
    return table


def _diff(path: str, expected, actual, out: list) -> None:
    """Collect human-readable leaf differences between two JSON trees."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected:
                out.append(f"{path}.{key}: unexpected (={actual[key]!r})")
            elif key not in actual:
                out.append(f"{path}.{key}: missing (was {expected[key]!r})")
            else:
                _diff(f"{path}.{key}", expected[key], actual[key], out)
    elif isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            out.append(f"{path}: length {len(expected)} -> {len(actual)}")
        for i, (e, a) in enumerate(zip(expected, actual)):
            _diff(f"{path}[{i}]", e, a, out)
    elif expected != actual:
        out.append(f"{path}: {expected!r} -> {actual!r}")


def capture(path: str) -> int:
    results = {}
    for name, thunk in scenarios().items():
        print(f"capture {name} ...", flush=True)
        results[name] = thunk()
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"version": SCENARIO_VERSION, "scenarios": results},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(results)} reference scenarios to {path}")
    return 0


def verify(path: str, max_diffs: int = 20) -> int:
    if not os.path.exists(path):
        print(f"ERROR: no fixture file at {path}; "
              "run with --capture on known-good code first")
        return 2
    with open(path) as fh:
        fixture = json.load(fh)
    if fixture.get("version") != SCENARIO_VERSION:
        print(f"ERROR: fixture version {fixture.get('version')} != "
              f"scenario version {SCENARIO_VERSION}; re-capture needed")
        return 2

    failed = []
    for name, thunk in scenarios().items():
        expected = fixture["scenarios"].get(name)
        if expected is None:
            print(f"FAIL {name}: not in fixture file")
            failed.append(name)
            continue
        actual = thunk()
        # Round-trip through JSON so float representation is compared on
        # identical footing with the stored fixture.
        actual = json.loads(json.dumps(actual))
        diffs: list = []
        _diff(name, expected, actual, diffs)
        if diffs:
            print(f"FAIL {name}: {len(diffs)} field(s) differ")
            for line in diffs[:max_diffs]:
                print(f"    {line}")
            if len(diffs) > max_diffs:
                print(f"    ... and {len(diffs) - max_diffs} more")
            failed.append(name)
        else:
            print(f"PASS {name}")

    if failed:
        print(f"\nEQUIVALENCE BROKEN: {len(failed)}/{len(fixture['scenarios'])} "
              f"scenario(s) diverged: {', '.join(failed)}")
        return 1
    print(f"\nAll {len(fixture['scenarios'])} scenarios bit-identical "
          "to the reference fixtures.")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--capture", action="store_true",
                        help="rewrite the reference fixtures from current "
                             "code (only when semantics intentionally change)")
    parser.add_argument("--fixture", default=FIXTURE_PATH,
                        help="fixture file path (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.capture:
        return capture(args.fixture)
    return verify(args.fixture)


if __name__ == "__main__":
    sys.exit(main())
