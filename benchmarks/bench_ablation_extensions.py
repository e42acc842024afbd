"""Ablations E & F — the paper's §IV/§VII proposals, implemented & measured.

* **E — guest-aware migration** (§VII future work): "If the Guest OS ...
  can tell the migration process which part is not used, the amount of
  migrated data can be reduced further."  We track writes since guest
  installation (generation stamps) and let the first pre-copy iteration
  skip never-written blocks.  The bench sweeps disk usage.

* **F — secondary NIC** (§IV-A-4): "use a secondary NIC for the
  migration, which can help limit the overhead on network I/O
  performance, but it has no effect on releasing the stress on disk."
  We run a network-bound web server with migration sharing its port vs
  using a dedicated one, and a disk-bound Bonnie++ to confirm the caveat.
"""

import pytest

from conftest import dump_trace, emit, observing, run_once
from repro.analysis import (
    build_testbed,
    format_table,
    mean_rate,
    performance_overhead,
)
from repro.core import MigrationConfig
from repro.units import MB

E_SCALE = 0.05
F_SCALE = 0.01


def test_guest_aware_usage_sweep(benchmark, scale):
    """Migrated data and time versus how full the disk actually is."""
    sweep_scale = min(scale, E_SCALE)

    def sweep():
        rows = []
        for usage in (0.1, 0.25, 0.5, 0.75, 1.0):
            for aware in (False, True):
                cfg = MigrationConfig(guest_aware=aware)
                bed = build_testbed("idle", scale=sweep_scale,
                                    prefill=usage, config=cfg,
                                    observe=observing())
                bed.start_workload()
                bed.run_for(1.0)
                report = bed.migrate(config=cfg)
                assert report.consistency_verified
                dump_trace(bed.env,
                           f"guest_aware_{usage:.2f}_"
                           f"{'aware' if aware else 'blind'}")
                if aware:
                    rows.append([f"{usage * 100:.0f} %",
                                 prev_data, report.migrated_mb,
                                 prev_time, report.total_migration_time])
                else:
                    prev_data = report.migrated_mb
                    prev_time = report.total_migration_time
        return rows

    rows = run_once(benchmark, sweep)
    emit(benchmark, "guest aware",
         format_table(["disk usage", "blind data (MB)", "aware data (MB)",
                       "blind time (s)", "aware time (s)"], rows,
                      title=f"Ablation E — guest-aware migration"
                            f" (scale={sweep_scale})"))
    # Data and time scale with usage when aware; blind is flat.
    ten_pct, full = rows[0], rows[-1]
    assert ten_pct[2] < 0.2 * ten_pct[1]     # 10% full: ~10x less data
    assert full[2] == pytest.approx(full[1], rel=0.05)  # 100%: no gain
    assert ten_pct[4] < 0.3 * ten_pct[3]     # ...and much faster


def test_multi_host_im(benchmark, scale):
    """Paper §VII: IM among any recently used machines (A->B->C->A)."""
    from repro.sim import Environment
    from repro.storage import PhysicalDisk
    from repro.units import MiB
    from repro.vm import Host

    def run_ring(multi):
        bed = build_testbed("kernelbuild", scale=min(scale, 0.02), seed=2,
                            observe=observing())
        bed.migrator.multi_host_im = multi
        third = Host(bed.env, "third",
                     PhysicalDisk(bed.env, 60 * MiB, 52 * MiB, 0.5e-3),
                     bed.source.clock)
        bed.migrator.connect(bed.destination, third)
        bed.migrator.connect(third, bed.source)
        bed.start_workload()
        bed.run_for(10.0)
        bed.migrate(destination=bed.destination)   # A -> B
        bed.run_for(10.0)
        bed.migrate(destination=third)             # B -> C
        bed.run_for(10.0)
        back = bed.migrate(destination=bed.source)  # C -> A
        dump_trace(bed.env, f"multi_host_im_{'multi' if multi else 'single'}")
        return back

    def run_both():
        return {"paper (single-hop IM)": run_ring(False),
                "multi-host IM": run_ring(True)}

    results = run_once(benchmark, run_both)
    rows = [[label,
             "incremental" if r.incremental else "FULL",
             r.storage_migration_time,
             r.storage_bytes / 2**20]
            for label, r in results.items()]
    emit(benchmark, "multi-host IM",
         format_table(["mode", "return trip A<-C", "storage time (s)",
                       "disk data (MB)"], rows,
                      title="Extension — multi-host IM (A->B->C->A)"))
    single = results["paper (single-hop IM)"]
    multi = results["multi-host IM"]
    assert not single.incremental          # paper's design: full again
    assert multi.incremental               # extension: incremental
    assert multi.storage_bytes < 0.3 * single.storage_bytes
    assert multi.consistency_verified


def test_secondary_nic(benchmark, scale):
    """Service throughput during migration: shared port vs secondary NIC."""
    nic_scale = min(scale, F_SCALE)

    def run_modes():
        out = {}
        for mode in ("shared", "secondary"):
            bed = build_testbed("specweb", scale=nic_scale, seed=5,
                                service_nic=mode, link_bandwidth=80 * MB,
                                observe=observing())
            bed.start_workload()
            bed.run_for(20.0)
            report = bed.migrate()
            dump_trace(bed.env, f"secondary_nic_{mode}")
            base = mean_rate(bed.metrics, "specweb:throughput", 0, 20)
            during = mean_rate(bed.metrics, "specweb:throughput",
                               report.started_at, report.ended_at)
            out[mode] = (base, during, report)
        # The caveat: a disk-bound guest gains nothing from the 2nd NIC.
        bed = build_testbed("bonnie", scale=nic_scale, seed=5,
                            service_nic="secondary", link_bandwidth=80 * MB)
        bed.start_workload()
        bed.run_for(20.0)
        report = bed.migrate()
        disk_bound = performance_overhead(
            bed.metrics, "bonnie:write",
            migration_window=(report.precopy_disk_started_at,
                              report.precopy_disk_ended_at),
            baseline_window=(0.0, 20.0))
        return out, disk_bound

    out, disk_bound = run_once(benchmark, run_modes)
    rows = [[mode, base / 1e6, during / 1e6,
             f"{(1 - during / base) * 100:.0f} %"]
            for mode, (base, during, _r) in out.items()]
    rows.append(["secondary + disk-bound guest", "-", "-",
                 f"{disk_bound.overhead_fraction * 100:.0f} % (disk!)"])
    emit(benchmark, "secondary nic",
         format_table(["NIC mode", "baseline (MB/s)", "during (MB/s)",
                       "service loss"], rows,
                      title=f"Ablation F — secondary NIC for migration"
                            f" (scale={nic_scale})"))
    shared_loss = 1 - out["shared"][1] / out["shared"][0]
    secondary_loss = 1 - out["secondary"][1] / out["secondary"][0]
    assert secondary_loss < shared_loss - 0.1   # 2nd NIC protects service
    assert disk_bound.overhead_fraction > 0.2   # ...but not the disk
