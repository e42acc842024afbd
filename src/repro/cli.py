"""Command-line interface: run migrations and experiments from a shell.

Installed as ``repro-sim`` (see ``pyproject.toml``), or run as
``python -m repro.cli``.

Examples::

    repro-sim migrate --workload specweb --scale 0.02
    repro-sim migrate --workload bonnie --rate-limit 30e6 --roundtrip
    repro-sim migrate --scheme freeze-and-copy --workload idle
    repro-sim migrate --workload video --trace video.trace.json
    repro-sim table1 --workload video --scale 0.1
    repro-sim table2 --workload specweb --scale 0.05 --dwell 60
    repro-sim locality --workload kernelbuild
    repro-sim trace --workload specweb --out specweb.trace.json
    repro-sim scale --racks 25 --hosts-per-rack 40 --rack-failure 10

Any trace written with ``--trace``/``trace`` in the default ``chrome``
format loads directly into ``chrome://tracing`` or https://ui.perfetto.dev.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis import (
    PAPER_LOCALITY,
    PAPER_TABLE1,
    PAPER_TABLE2,
    format_table,
    run_locality_experiment,
    run_table1_experiment,
    run_table2_experiment,
)
from .analysis.experiments import run_baseline_experiment
from .core import MigrationConfig, scheme_names
from .units import fmt_bytes, fmt_time

WORKLOADS = ("specweb", "video", "bonnie", "kernelbuild", "idle")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=WORKLOADS, default="specweb",
                        help="guest workload (default: specweb)")
    parser.add_argument("--scale", type=float, default=0.02,
                        help="testbed scale factor, 1.0 = paper geometry "
                             "(default: 0.02)")
    parser.add_argument("--seed", type=int, default=0,
                        help="random seed (default: 0)")
    parser.add_argument("--warmup", type=float, default=20.0,
                        help="seconds of workload before migrating "
                             "(default: 20)")


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--rate-limit", type=float, default=None,
                        metavar="BYTES_PER_S",
                        help="cap migration bandwidth during pre-copy")
    parser.add_argument("--guest-aware", action="store_true",
                        help="skip never-written blocks (paper §VII)")
    parser.add_argument("--compress", action="store_true",
                        help="compress bulk migration data (paper §III-A)")
    parser.add_argument("--compression-ratio", type=float, default=2.0,
                        help="assumed compression ratio (default: 2.0)")
    parser.add_argument("--bitmap", choices=("flat", "layered"),
                        default="flat", help="block-bitmap layout")
    parser.add_argument("--max-iterations", type=int, default=4,
                        help="disk pre-copy iteration cap (default: 4)")


def _add_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write a trace of the run to PATH "
                             "(enables the tracer)")
    parser.add_argument("--trace-format", choices=("chrome", "json"),
                        default="chrome",
                        help="trace file format: 'chrome' loads into "
                             "chrome://tracing (default), 'json' is the "
                             "raw span/metric dump")


def _maybe_dump_trace(args: argparse.Namespace, bed) -> None:
    if getattr(args, "trace", None):
        path = bed.dump_trace(args.trace, fmt=args.trace_format)
        print(f"trace written to {path} ({args.trace_format} format)")


def _config_from(args: argparse.Namespace) -> MigrationConfig:
    return MigrationConfig(
        rate_limit=args.rate_limit,
        guest_aware=args.guest_aware,
        compress=args.compress,
        compression_ratio=args.compression_ratio,
        bitmap_layout=args.bitmap,
        max_disk_iterations=args.max_iterations,
    )


def _print_report(report, label: str = "") -> None:
    if label:
        print(f"== {label} ==")
    print(report.summary())
    print(f"  phase times: disk pre-copy "
          f"{fmt_time(report.precopy_disk_ended_at - report.precopy_disk_started_at)}"
          f", memory {fmt_time(report.precopy_mem_ended_at - report.precopy_mem_started_at)}"
          f", post-copy {fmt_time(report.postcopy.duration)}")
    if report.bytes_by_category:
        ledger = ", ".join(f"{k}={fmt_bytes(v)}" for k, v in
                           sorted(report.bytes_by_category.items()))
        print(f"  wire ledger: {ledger}")
    for key, value in report.extra.items():
        print(f"  {key}: {value}")
    print()


def cmd_migrate(args: argparse.Namespace) -> int:
    config = _config_from(args)
    observe = args.trace is not None
    if args.scheme == "tpm":
        report, bed = run_table1_experiment(
            args.workload, scale=args.scale, seed=args.seed,
            config=config, warmup=args.warmup, observe=observe)
        _print_report(report, "primary TPM migration")
        if args.roundtrip:
            bed.run_for(args.dwell)
            back = bed.migrate()
            _print_report(back, "incremental migration back")
        _maybe_dump_trace(args, bed)
        return 0
    report, bed, migration = run_baseline_experiment(
        args.scheme, args.workload, scale=args.scale, seed=args.seed,
        config=config, warmup=args.warmup, tail=args.dwell, observe=observe)
    _print_report(report, f"{args.scheme} migration")
    if args.scheme == "on-demand" and migration is not None:
        print(f"  residual dependency: {migration.residual_blocks} blocks "
              f"still only on the source "
              f"({'alive' if migration.dependency_alive else 'done'})")
        migration.stop()
    _maybe_dump_trace(args, bed)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one traced migration and print the span tree + key metrics."""
    from .obs.export import phase_durations

    config = _config_from(args)
    observe_scheme = args.scheme
    if observe_scheme == "tpm":
        report, bed = run_table1_experiment(
            args.workload, scale=args.scale, seed=args.seed,
            config=config, warmup=args.warmup, observe=True)
    else:
        report, bed, migration = run_baseline_experiment(
            observe_scheme, args.workload, scale=args.scale, seed=args.seed,
            config=config, warmup=args.warmup, observe=True)
        if observe_scheme == "on-demand" and migration is not None:
            migration.stop()
    _print_report(report, f"{observe_scheme} migration")

    tracer = bed.tracer
    nchunks = sum(1 for s in tracer.spans if s.category == "transfer")
    print(f"span tree ({len(tracer.spans)} spans, "
          f"{nchunks} chunk transfers collapsed):")
    for depth, span in tracer.walk():
        if span.category == "transfer":
            continue
        print(f"  {'  ' * depth}{span.name:<28s} {fmt_time(span.duration)}")
    phases = phase_durations(tracer)
    if phases:
        print("phase durations:",
              ", ".join(f"{k}={fmt_time(v)}" for k, v in phases.items()))
    counters = [name for name in bed.metrics.names()
                if name.startswith(("chan.", "link."))]
    if counters:
        print("wire counters:")
        for name in sorted(counters):
            print(f"  {name:<28s} {fmt_bytes(bed.metrics.get(name).total)}")
    path = bed.dump_trace(args.out, fmt=args.trace_format)
    print(f"trace written to {path} ({args.trace_format} format)")
    return 0


def cmd_evacuate(args: argparse.Namespace) -> int:
    """Evacuate one host of a simulated cluster through the scheduler."""
    from .cluster import RoundRobin, build_cluster, least_loaded

    bed = build_cluster(
        nhosts=args.hosts, vms_per_host=args.vms_per_host,
        wiring=args.wiring, nblocks=args.nblocks, npages=args.npages,
        max_concurrent=args.concurrency, per_link_limit=args.per_link_limit,
        observe=args.trace is not None)
    policy = (RoundRobin() if args.policy == "round-robin"
              else least_loaded)
    victim = bed.hosts[0]
    jobs = bed.scheduler.evacuate(victim, policy=policy, scheme=args.scheme)
    bed.scheduler.drain(jobs)
    print(f"evacuated {victim.name}: {len(jobs)} VMs, "
          f"makespan {fmt_time(bed.scheduler.makespan(jobs))}")
    for job in jobs:
        status = job.status
        downtime = (fmt_time(job.report.downtime)
                    if job.report is not None and job.succeeded else "-")
        print(f"  {job.domain.name:<16s} -> {job.destination.name:<8s} "
              f"{status:<7s} queue {fmt_time(job.queue_time)} "
              f"downtime {downtime}")
    from .cluster import audit_link_bytes

    bad = [a for a in audit_link_bytes(bed.migrator.migrations)
           if not a.conserved]
    print(f"per-link byte accounting: "
          f"{'conserved' if not bad else f'{len(bad)} MISMATCHES'}")
    if args.trace:
        from .obs import dump_chrome_trace, dump_json

        dump = (dump_chrome_trace if args.trace_format == "chrome"
                else dump_json)
        path = dump(args.trace, bed.env.tracer, bed.env.metrics)
        print(f"trace written to {path} ({args.trace_format} format)")
    return 0 if not bad and all(j.succeeded for j in jobs) else 1


def cmd_scale(args: argparse.Namespace) -> int:
    """Drive a datacenter-scale churn scenario on the sharded engine.

    Builds one simulation shard per rack (conservative lookahead set by
    the inter-rack link latency), runs the configured churn timeline —
    VM arrivals/departures, rolling maintenance evacuations, correlated
    rack failures — then drains outstanding evacuations and prints SLO
    and conservation results.
    """
    from .cluster import (ChurnConfig, ChurnGenerator,
                          build_sharded_cluster, slo_report)

    cluster = build_sharded_cluster(
        nracks=args.racks, hosts_per_rack=args.hosts_per_rack,
        vms_per_host=args.vms_per_host, nblocks=args.nblocks,
        npages=args.npages, max_concurrent=args.concurrency,
        seed=args.seed)
    nhosts = args.racks * args.hosts_per_rack
    print(f"sharded cluster: {nhosts} hosts / "
          f"{nhosts * args.vms_per_host} VMs in {args.racks} racks "
          f"(lookahead {cluster.engine.lookahead * 1e6:.0f} us)")

    config = ChurnConfig(
        duration=args.duration, arrival_rate=args.arrival_rate,
        departure_rate=args.departure_rate,
        maintenance_interval=args.maintenance_interval,
        maintenance_hold=args.maintenance_hold,
        rack_failure_times=tuple(args.rack_failure or ()),
        rack_failure_down_for=args.rack_down_for,
        vm_nblocks=args.nblocks, vm_npages=args.npages)
    generator = ChurnGenerator(cluster, config)
    applied = generator.run()
    print("churn applied: " + (", ".join(
        f"{kind}={count}" for kind, count in sorted(applied.items()))
        or "nothing scheduled"))

    jobs = cluster.drain(generator.evacuation_jobs)
    report = slo_report(jobs, default_budget=args.downtime_budget)
    if jobs:
        print(f"maintenance evacuations ({len(jobs)} jobs):")
        print("  " + report.summary().replace("\n", "\n  "))
    else:
        print("no maintenance evacuations were scheduled")

    engine = cluster.engine
    print(f"engine: {cluster.events_processed} events across "
          f"{len(cluster.shards)} shards, {engine.windows} sync windows, "
          f"{engine.messages_delivered} cross-shard messages")
    bad = [audit for audit in cluster.audits() if not audit.conserved]
    print(f"per-link byte accounting: "
          f"{'conserved' if not bad else f'{len(bad)} MISMATCHES'}")
    return 0 if not bad else 1


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run seeded chaos schedules and check the recovery invariants.

    Each seed drives a randomized-but-reproducible fault schedule
    (partitions, link flaps, host crashes) against a cluster running a
    migration wave with retry + health tracking on, then asserts byte
    conservation, placement integrity, bitmap coverage, and
    surrogate-leak freedom.  Exit code 1 (with the seed printed) on any
    violation, so CI failures replay exactly.
    """
    from .cluster.chaos import ChaosConfig, run_chaos
    from .cluster.scheduler import RetryPolicy

    seeds = args.seed if args.seed else [0, 1]
    modes = (("monolithic", "sharded") if args.mode == "both"
             else (args.mode,))
    retry = RetryPolicy(max_attempts=args.max_attempts,
                        initial_backoff=0.2, max_backoff=2.0)
    bad = 0
    for mode in modes:
        for seed in seeds:
            report = run_chaos(ChaosConfig(
                seed=seed, mode=mode, nracks=args.racks,
                hosts_per_rack=args.hosts_per_rack,
                vms_per_host=args.vms_per_host, njobs=args.jobs,
                nblocks=args.nblocks, npages=args.npages, retry=retry))
            print(report.summary())
            bad += not report.ok
    if bad:
        print(f"\n{bad} run(s) violated invariants -- replay with "
              f"`repro-sim chaos --seed <seed> --mode <mode>`")
    return 1 if bad else 0


def cmd_backup(args: argparse.Namespace) -> int:
    """Run a bitmap-driven backup chain against a live workload.

    One full backup, then ``--increments`` incremental deltas at
    ``--interval`` simulated seconds apart; with ``--migrate-between``
    the VM live-migrates mid-chain (the tp-qemu
    backup-with-migration scenario) and the chain keeps accumulating.
    The chain is finally restored into a fresh device and verified
    against the live disk.
    """
    from .analysis.experiments import build_testbed
    from .persist import BackupChain

    config = _config_from(args).replace(
        persist_sync_policy=args.sync_policy)
    bed = build_testbed(args.workload, scale=args.scale, seed=args.seed,
                        config=config)
    bed.start_workload()
    bed.run_for(args.warmup)

    chain = BackupChain(bed.domain, policy=args.sync_policy)
    chain.full_backup()
    for i in range(args.increments):
        bed.run_for(args.interval)
        if args.migrate_between and i == args.increments // 2:
            report = bed.migrate()
            print(f"live-migrated mid-chain to "
                  f"{bed.domain.host.name} "
                  f"(downtime {fmt_time(report.downtime)})")
        chain.incremental_backup()

    # Final delta from a quiesced guest, so the restore target has a
    # well-defined point-in-time to match.
    domain = bed.domain
    driver = domain.host.driver_of(domain.domain_id)

    def quiesce(env):
        domain.suspend()
        yield from driver.quiesce()

    bed.env.run(until=bed.env.process(quiesce(bed.env)))
    chain.incremental_backup()
    restored = chain.restore()
    live = domain.host.vbd_of(domain.domain_id)
    consistent = restored.identical_to(live)
    domain.resume()

    total = chain.total_backup_bytes()
    full_bytes = chain.records[0].nblocks * chain.block_size
    print(f"backup chain for {domain.name!r} "
          f"({args.workload}, policy={args.sync_policy}):")
    for record in chain.records:
        note = " (recovered bitmap)" if record.recovered else ""
        print(f"  #{record.seq:<3d}{record.kind:<12s}"
              f"{record.nblocks:>8d} blocks  "
              f"{fmt_bytes(record.nblocks * chain.block_size):>10s}  "
              f"at t={record.taken_at:.1f}s{note}")
    scratch = full_bytes * len(chain.records)
    print(f"  chain total {fmt_bytes(total)} vs "
          f"{fmt_bytes(scratch)} for all-full backups "
          f"({total / scratch:.1%})")
    stats = chain.store.collect_stats()
    print(f"  store: {stats.records_appended} journal records, "
          f"{stats.journal_flushes} flushes, "
          f"{stats.snapshots_written} snapshots, "
          f"{stats.area_writes} area writes")
    print(f"  restore verified: {'CONSISTENT' if consistent else 'DIVERGED'}")
    chain.close()
    return 0 if consistent else 1


def cmd_table1(args: argparse.Namespace) -> int:
    report, _bed = run_table1_experiment(
        args.workload, scale=args.scale, seed=args.seed, warmup=args.warmup)
    paper = PAPER_TABLE1.get(args.workload, {})
    rows = [
        ["Total migration time (s)", paper.get("total_s", "n/a"),
         report.total_migration_time],
        ["Downtime (ms)", paper.get("downtime_ms", "n/a"),
         report.downtime * 1e3],
        ["Migrated data (MB)", paper.get("data_mb", "n/a"),
         report.migrated_mb],
    ]
    print(format_table(["metric", "paper", "measured"], rows,
                       title=f"Table I — {args.workload} "
                             f"(scale={args.scale})"))
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    primary, back, _bed = run_table2_experiment(
        args.workload, scale=args.scale, seed=args.seed,
        warmup=args.warmup, dwell=args.dwell)
    paper = PAPER_TABLE2.get(args.workload, {})
    rows = [
        ["Primary TPM time (s)", "Table I", primary.total_migration_time],
        ["IM storage time (s)", paper.get("time_s", "n/a"),
         back.storage_migration_time],
        ["IM storage data (MB)", paper.get("data_mb", "n/a"),
         back.storage_bytes / 2**20],
    ]
    print(format_table(["metric", "paper", "measured"], rows,
                       title=f"Table II — {args.workload} "
                             f"(dwell={args.dwell}s)"))
    return 0


def cmd_locality(args: argparse.Namespace) -> int:
    stats, _bed = run_locality_experiment(
        args.workload, duration=args.duration, scale=max(args.scale, 0.02),
        seed=args.seed, warmup=args.warmup)
    paper = PAPER_LOCALITY.get(args.workload)
    rows = [
        ["rewrite fraction (ops)",
         f"{paper * 100:.1f} %" if paper else "n/a",
         f"{stats.op_rewrite_fraction * 100:.1f} %"],
        ["write operations", "-", stats.write_ops],
        ["delta-queue redundant blocks", "-",
         stats.delta_redundancy_blocks],
    ]
    print(format_table(["metric", "paper", "measured"], rows,
                       title=f"§IV-A-2 locality — {args.workload}"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Whole-system VM live migration (CLUSTER'08) — "
                    "simulated experiments")
    parser.add_argument("--profile", action="store_true",
                        help="run the command under cProfile and print the "
                             "top 25 functions by cumulative time.  Must "
                             "precede the subcommand: "
                             "repro-sim --profile migrate")
    parser.add_argument("--profile-out", metavar="PATH", default=None,
                        help="with --profile, dump raw pstats to PATH "
                             "(load with pstats or snakeviz) instead of "
                             "printing")
    sub = parser.add_subparsers(dest="command", required=True)

    p_migrate = sub.add_parser(
        "migrate", help="run one migration and print the report")
    _add_common(p_migrate)
    _add_config(p_migrate)
    p_migrate.add_argument("--scheme", choices=scheme_names(aliases=True),
                           default="tpm", help="migration scheme")
    p_migrate.add_argument("--roundtrip", action="store_true",
                           help="also migrate back (IM) after --dwell")
    p_migrate.add_argument("--dwell", type=float, default=30.0,
                           help="seconds on the destination before the "
                                "return trip (default: 30)")
    _add_trace(p_migrate)
    p_migrate.set_defaults(func=cmd_migrate)

    p_trace = sub.add_parser(
        "trace", help="run one traced migration and dump the trace file")
    _add_common(p_trace)
    _add_config(p_trace)
    p_trace.add_argument("--scheme", choices=scheme_names(aliases=True),
                         default="tpm", help="migration scheme")
    p_trace.add_argument("--out", metavar="PATH",
                         default="migration.trace.json",
                         help="trace output path "
                              "(default: migration.trace.json)")
    p_trace.add_argument("--trace-format", choices=("chrome", "json"),
                         default="chrome",
                         help="'chrome' loads into chrome://tracing "
                              "(default); 'json' is the raw dump")
    p_trace.set_defaults(func=cmd_trace)

    p_evac = sub.add_parser(
        "evacuate", help="drain one host of a simulated cluster")
    p_evac.add_argument("--hosts", type=int, default=4,
                        help="number of hosts (default: 4)")
    p_evac.add_argument("--vms-per-host", type=int, default=2,
                        help="VMs per host (default: 2)")
    p_evac.add_argument("--wiring", choices=("full", "star", "rack"),
                        default="star", help="cluster wiring (default: star)")
    p_evac.add_argument("--concurrency", type=int, default=4,
                        help="admission cap: concurrent migrations "
                             "(default: 4)")
    p_evac.add_argument("--per-link-limit", type=int, default=None,
                        help="max in-flight migrations per link "
                             "(default: unlimited)")
    p_evac.add_argument("--policy", choices=("least-loaded", "round-robin"),
                        default="least-loaded", help="placement policy")
    p_evac.add_argument("--scheme", choices=scheme_names(aliases=True), default="tpm",
                        help="migration scheme (default: tpm)")
    p_evac.add_argument("--nblocks", type=int, default=2048,
                        help="VBD blocks per VM (default: 2048)")
    p_evac.add_argument("--npages", type=int, default=256,
                        help="memory pages per VM (default: 256)")
    _add_trace(p_evac)
    p_evac.set_defaults(func=cmd_evacuate)

    p_scale = sub.add_parser(
        "scale", help="run a datacenter-scale churn scenario on the "
                      "sharded per-rack engine")
    p_scale.add_argument("--racks", type=int, default=25,
                         help="racks = simulation shards (default: 25)")
    p_scale.add_argument("--hosts-per-rack", type=int, default=40,
                         help="hosts per rack (default: 40)")
    p_scale.add_argument("--vms-per-host", type=int, default=10,
                         help="seed VMs per host (default: 10)")
    p_scale.add_argument("--nblocks", type=int, default=256,
                         help="VBD blocks per VM (default: 256)")
    p_scale.add_argument("--npages", type=int, default=32,
                         help="memory pages per VM (default: 32)")
    p_scale.add_argument("--concurrency", type=int, default=64,
                         help="admission cap per shard scheduler "
                              "(default: 64)")
    p_scale.add_argument("--seed", type=int, default=0,
                         help="seed; shard i draws from "
                              "default_rng((seed, i)) (default: 0)")
    p_scale.add_argument("--duration", type=float, default=30.0,
                         help="simulated seconds of churn (default: 30)")
    p_scale.add_argument("--arrival-rate", type=float, default=2.0,
                         help="VM arrivals/s cluster-wide (default: 2)")
    p_scale.add_argument("--departure-rate", type=float, default=1.0,
                         help="VM departures/s cluster-wide (default: 1)")
    p_scale.add_argument("--maintenance-interval", type=float, default=5.0,
                         help="seconds between rolling-maintenance "
                              "evacuations, 0 disables (default: 5)")
    p_scale.add_argument("--maintenance-hold", type=float, default=5.0,
                         help="seconds a host stays in its window "
                              "(default: 5)")
    p_scale.add_argument("--rack-failure", type=float, action="append",
                         metavar="T", default=None,
                         help="inject a correlated rack failure at "
                              "simulated time T (repeatable)")
    p_scale.add_argument("--rack-down-for", type=float, default=5.0,
                         help="seconds crashed racks stay down "
                              "(default: 5)")
    p_scale.add_argument("--downtime-budget", type=float, default=None,
                         metavar="SECONDS",
                         help="per-tenant downtime budget for the SLO "
                              "report (default: none)")
    p_scale.set_defaults(func=cmd_scale)

    p_chaos = sub.add_parser(
        "chaos", help="seeded chaos runs checking the cluster recovery "
                      "invariants")
    p_chaos.add_argument("--seed", type=int, action="append", default=None,
                         metavar="N",
                         help="seed to run (repeatable; default: 0 1)")
    p_chaos.add_argument("--mode", choices=("monolithic", "sharded", "both"),
                         default="both",
                         help="cluster engine(s) to test (default: both)")
    p_chaos.add_argument("--racks", type=int, default=2,
                         help="racks in the test cluster (default: 2)")
    p_chaos.add_argument("--hosts-per-rack", type=int, default=3,
                         help="hosts per rack (default: 3)")
    p_chaos.add_argument("--vms-per-host", type=int, default=2,
                         help="VMs per host (default: 2)")
    p_chaos.add_argument("--jobs", type=int, default=6,
                         help="migrations submitted per run (default: 6)")
    p_chaos.add_argument("--nblocks", type=int, default=2048,
                         help="VBD blocks per VM (default: 2048)")
    p_chaos.add_argument("--npages", type=int, default=64,
                         help="memory pages per VM (default: 64)")
    p_chaos.add_argument("--max-attempts", type=int, default=3,
                         help="retry budget per job (default: 3)")
    p_chaos.set_defaults(func=cmd_chaos)

    p_backup = sub.add_parser(
        "backup", help="run a bitmap-driven incremental backup chain")
    _add_common(p_backup)
    _add_config(p_backup)
    p_backup.add_argument("--increments", type=int, default=4,
                          help="incremental backups after the full "
                               "(default: 4)")
    p_backup.add_argument("--interval", type=float, default=10.0,
                          help="simulated seconds between incrementals "
                               "(default: 10)")
    p_backup.add_argument("--sync-policy",
                          choices=("wal", "batch", "snapshot"),
                          default="wal",
                          help="bitmap store write-back policy "
                               "(default: wal)")
    p_backup.add_argument("--migrate-between", action="store_true",
                          help="live-migrate the VM mid-chain "
                               "(backup-during-migration scenario)")
    p_backup.set_defaults(func=cmd_backup)

    p_t1 = sub.add_parser("table1", help="reproduce a Table I row")
    _add_common(p_t1)
    p_t1.set_defaults(func=cmd_table1)

    p_t2 = sub.add_parser("table2", help="reproduce a Table II row")
    _add_common(p_t2)
    p_t2.add_argument("--dwell", type=float, default=30.0)
    p_t2.set_defaults(func=cmd_table2)

    p_loc = sub.add_parser("locality",
                           help="measure a workload's rewrite locality")
    _add_common(p_loc)
    p_loc.add_argument("--duration", type=float, default=120.0)
    p_loc.set_defaults(func=cmd_locality)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.profile or args.profile_out:
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        try:
            return profiler.runcall(args.func, args)
        finally:
            if args.profile_out:
                profiler.dump_stats(args.profile_out)
                print(f"profile written to {args.profile_out}",
                      file=sys.stderr)
            else:
                pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - direct execution
    sys.exit(main())
