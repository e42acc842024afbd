#!/usr/bin/env python3
"""Host maintenance with Incremental Migration (paper §V's motivating case).

Scenario: the source machine needs a firmware update.  The VM is migrated
away with TPM, the machine is serviced, and the VM migrates *back*.
Because the destination kept tracking writes in the IM bitmap (BM_3) and
the source still holds the stale disk copy, the return trip transfers
only the blocks that changed — seconds instead of minutes.

Run:
    python examples/host_maintenance.py
"""

from repro.analysis import build_testbed
from repro.units import fmt_bytes, fmt_time


def describe(label: str, report) -> None:
    kind = "incremental" if report.incremental else "full"
    print(f"  {label} ({kind}):")
    print(f"    total time : {fmt_time(report.total_migration_time)}")
    print(f"    downtime   : {fmt_time(report.downtime)}")
    print(f"    moved      : {fmt_bytes(report.migrated_bytes)}"
          f"  (disk portion {fmt_bytes(report.storage_bytes)})")
    print(f"    first-iteration blocks: "
          f"{report.disk_iterations[0].units_sent}")


def main() -> None:
    bed = build_testbed(workload="kernelbuild", scale=0.02, seed=7)
    bed.start_workload()
    bed.run_for(15.0)

    print("== Step 1: evacuate the VM for maintenance ==")
    away = bed.migrate()
    describe("source -> destination", away)
    assert bed.domain.host is bed.destination

    print("\n== Step 2: maintenance window (VM keeps working elsewhere) ==")
    maintenance = 30.0
    before = bed.workload.bytes_processed
    bed.run_for(maintenance)
    print(f"  {fmt_time(maintenance)} of maintenance; the build pushed "
          f"{fmt_bytes(bed.workload.bytes_processed - before)} meanwhile")
    # BM_3 is named after the host whose stale copy it describes.
    im_bitmap = bed.destination.driver_of(
        bed.domain.domain_id).tracking_bitmap(f"im:{bed.source.name}")
    print(f"  IM bitmap accumulated {im_bitmap.count()} dirty blocks "
          f"({fmt_bytes(im_bitmap.serialized_nbytes())} on the wire)")

    print("\n== Step 3: migrate back — incrementally ==")
    back = bed.migrate()
    describe("destination -> source", back)
    assert back.incremental
    assert bed.domain.host is bed.source

    speedup = away.storage_migration_time / max(back.storage_migration_time,
                                                1e-9)
    saved = away.storage_bytes / max(back.storage_bytes, 1)
    print(f"\nIM verdict: storage migration {speedup:.0f}x faster, "
          f"{saved:.0f}x less disk data than the primary migration.")


if __name__ == "__main__":
    main()
