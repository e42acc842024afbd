#!/usr/bin/env python3
"""Migration bandwidth tuning under a diabolical I/O load (§VI-C-3).

The paper's trade-off: limiting the bandwidth the migration may use
roughly halves its impact on the guest's disk throughput, but lengthens
the pre-copy phase (~37 % in their experiment).  This example sweeps the
rate limit and prints the frontier so an operator can pick a point.

Run:
    python examples/bandwidth_tuning.py
"""

from repro.analysis import build_testbed, performance_overhead
from repro.core import MigrationConfig
from repro.units import MB, fmt_time

SCALE = 0.01
WARMUP = 30.0


def run_with_limit(limit):
    cfg = MigrationConfig(rate_limit=limit)
    bed = build_testbed(workload="bonnie", scale=SCALE, seed=3, config=cfg)
    bed.start_workload()
    bed.run_for(WARMUP)
    report = bed.migrate(config=cfg)
    bed.run_for(10.0)
    impact = performance_overhead(
        bed.metrics, "bonnie:write",
        migration_window=(report.precopy_disk_started_at,
                          report.precopy_disk_ended_at),
        baseline_window=(0.0, WARMUP))
    precopy = report.precopy_disk_ended_at - report.precopy_disk_started_at
    return impact.overhead_fraction, precopy, report


def main() -> None:
    print("Sweeping migration rate limits while Bonnie++ hammers the disk\n")
    print(f"{'rate limit':>12s}  {'guest impact':>12s}  "
          f"{'pre-copy':>10s}  {'total':>10s}  {'downtime':>10s}")
    print("-" * 64)

    baseline = None
    for limit in (None, 60 * MB, 40 * MB, 25 * MB, 15 * MB):
        impact, precopy, report = run_with_limit(limit)
        label = "unlimited" if limit is None else f"{limit / MB:.0f} MB/s"
        if baseline is None:
            baseline = (impact, precopy)
        print(f"{label:>12s}  {impact * 100:>11.0f}%  "
              f"{fmt_time(precopy):>10s}  "
              f"{fmt_time(report.total_migration_time):>10s}  "
              f"{fmt_time(report.downtime):>10s}")

    print("-" * 64)
    print("Lower limits spare the guest but stretch the pre-copy — the")
    print("paper picked its limit to halve the impact at +37% pre-copy.")


if __name__ == "__main__":
    main()
