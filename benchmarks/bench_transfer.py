"""Adaptive transfer stack ablation — delta cache, multifd, auto-converge.

Sweeps the three ``MigrationConfig`` transfer knobs (see
``docs/TRANSFER.md``) over the paper's Table-I workloads, one knob at a
time plus all together, and prints the ablation table EXPERIMENTS.md
quotes:

* **delta** — an XBZRLE-style cache sized to the whole device, so every
  re-dirtied block re-sends as a small delta.  Helps exactly the
  rewrite-heavy workloads (Bonnie++, kernel build); streaming writers
  (video) never re-send and gain nothing.
* **delta-evict** — the same cache at 1/64 of the device, smaller than
  the set Bonnie++ re-dirties, so it evicts throughout and re-sends of
  evicted blocks ship whole.  Every such run must report evictions;
  on Bonnie++ it must also hit on some re-sends but fewer than the
  device-sized cache does.
* **multifd** — 4 striped sub-channels over the same wire.  Byte totals
  are unchanged (the NIC is the bottleneck, not per-channel CPU here);
  every run is checked against the per-link byte-conservation audit.
* **auto-converge** — guest write throttling when the dirty rate outruns
  the link.  A no-op on workloads that already converge; the second
  table runs the diabolical case (Bonnie++ behind a thin 8 MB/s link)
  where pre-copy cannot converge without it.

Run standalone::

    python benchmarks/bench_transfer.py            # full geometry
    python benchmarks/bench_transfer.py --smoke    # CI-sized, seconds

Not a pytest module: the sweep *is* the benchmark, and the convergence
contrast only makes sense printed side by side.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.analysis import format_table  # noqa: E402
from repro.analysis.experiments import (FULL_DISK_BLOCKS,  # noqa: E402
                                        build_testbed)
from repro.cluster import audit_link_bytes  # noqa: E402
from repro.core import MigrationConfig  # noqa: E402
from repro.units import MB, MiB, fmt_time  # noqa: E402

#: Thin link that makes Bonnie++ diabolical: the workload re-dirties
#: blocks faster than 8 MB/s can drain them, so plain pre-copy hits the
#: proactive stop with most of its working set still dirty.
DIABOLICAL_LINK = 8 * MB


def device_cache_mb(scale: float) -> float:
    """Delta cache sized to cover the whole (scaled) device."""
    nblocks = max(int(FULL_DISK_BLOCKS * scale), 256)
    return nblocks * 4096 / MiB


def variants(scale: float) -> dict[str, dict]:
    cache = device_cache_mb(scale)
    return {
        "baseline": {},
        "delta": dict(delta_cache_mb=cache),
        "delta-evict": dict(delta_cache_mb=cache / 64),
        "multifd": dict(multifd_channels=4),
        "auto-converge": dict(auto_converge=True),
        "all": dict(delta_cache_mb=cache, multifd_channels=4,
                    auto_converge=True),
    }


def migrate_once(workload: str, scale: float, overrides: dict,
                 link_bandwidth: float | None = None, warmup: float = 20.0):
    """One warmed-up migration; returns (report, config)."""
    cfg = MigrationConfig(**overrides)
    kwargs = {} if link_bandwidth is None else dict(
        link_bandwidth=link_bandwidth)
    bed = build_testbed(workload, scale=scale, config=cfg, **kwargs)
    bed.start_workload()
    bed.run_for(warmup)
    report = bed.migrate()
    if not report.consistency_verified:
        raise AssertionError(
            f"{workload}/{overrides}: destination not consistent")
    bad = [audit for audit in audit_link_bytes(bed.migrator.migrations)
           if not audit.conserved]
    if bad:
        raise AssertionError(f"byte accounting not conserved: {bad}")
    return report, cfg


def check_evicting_cache(workload: str, stats: dict,
                         device_hits: int) -> None:
    """The evicting cache must have evicted.  On Bonnie++, whose
    re-dirtied set exceeds it, it must also still hit on some re-sends
    and miss on others the device-sized cache hit: re-dirtied blocks
    were evicted between their sends, so hits and evictions mix."""
    if not stats["evictions"]:
        raise AssertionError(
            f"{workload}: the evicting delta cache never evicted")
    if workload == "bonnie" and not 0 < stats["hits"] < device_hits:
        raise AssertionError(
            f"{workload}: evicting cache hit {stats['hits']} re-sends, "
            f"expected some but fewer than the device-sized cache's "
            f"{device_hits}")


def ablation_table(workloads, scale: float) -> None:
    rows = []
    for workload in workloads:
        for name, overrides in variants(scale).items():
            report, _cfg = migrate_once(workload, scale, overrides)
            if name == "delta":
                device_hits = report.extra["delta_disk"]["hits"]
            if name == "delta-evict":
                check_evicting_cache(workload, report.extra["delta_disk"],
                                     device_hits)
            saved = (report.extra.get("delta_disk", {}).get("bytes_saved", 0)
                     + report.extra.get("delta_mem", {}).get("bytes_saved",
                                                             0))
            rows.append([
                workload,
                name,
                fmt_time(report.total_migration_time),
                fmt_time(report.downtime),
                f"{report.migrated_bytes / 1e6:.1f}",
                f"{saved / 1e6:.2f}" if saved else "-",
                report.extra.get("auto_converge_steps", "-"),
            ])
        rows.append(None)  # separator between workloads
    rows = [row for row in rows if row is not None]
    print(format_table(
        ["workload", "variant", "migration time", "downtime", "moved MB",
         "delta-saved MB", "throttle steps"],
        rows,
        title=f"Transfer-stack ablation (scale={scale}, "
              f"every run byte-audited)"))


def convergence_table(scale: float) -> None:
    """Diabolical Bonnie++ behind a thin link: only auto-converge makes
    the pre-copy converge; plain pre-copy proactively stops and hands the
    working set to post-copy."""
    rows = []
    for auto in (False, True):
        report, cfg = migrate_once("bonnie", scale, dict(auto_converge=auto),
                                   link_bandwidth=DIABOLICAL_LINK)
        last = report.disk_iterations[-1]
        converged = last.dirty_at_end <= cfg.disk_dirty_threshold_blocks
        if auto and not converged:
            raise AssertionError(
                "auto-converge failed to converge the diabolical workload")
        if not auto and converged:
            raise AssertionError(
                "diabolical workload converged without throttling — "
                "the contrast below is meaningless")
        rows.append([
            "on" if auto else "off",
            len(report.disk_iterations),
            last.dirty_at_end,
            "yes" if converged else "no (post-copy)",
            report.extra.get("auto_converge_steps", "-"),
            report.extra.get("auto_converge_final_factor", "-"),
            fmt_time(report.total_migration_time),
            fmt_time(report.downtime),
        ])
    print(format_table(
        ["auto-converge", "iterations", "final dirty", "converged",
         "throttle steps", "final factor", "migration time", "downtime"],
        rows,
        title=f"Diabolical convergence: bonnie @ "
              f"{DIABOLICAL_LINK / MB:.0f} MB/s link (scale={scale}, "
              f"dirty threshold={MigrationConfig().disk_dirty_threshold_blocks})"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized geometry (seconds instead of minutes)")
    args = parser.parse_args(argv)

    if args.smoke:
        scale, workloads = 0.005, ("specweb", "bonnie")
    else:
        scale, workloads = 0.02, ("specweb", "video", "bonnie",
                                  "kernelbuild")

    ablation_table(workloads, scale)
    print()
    convergence_table(scale)
    print("\nAll runs: destination verified consistent, per-link byte "
          "accounting conserved (multifd stripes included).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
