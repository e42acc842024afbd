"""Figure 6 — impact on Bonnie++ throughput, and the §VI-C-3 rate-limit study.

Paper (CLUSTER'08, §VI-C-3, Fig. 6): the four Bonnie++ curves (putc,
write(2), rewrite, getc) drop markedly while the migration reads the disk
at a high rate, and recover afterwards.  Limiting the migration's
bandwidth reduces the impact by about 50 % but lengthens the pre-copy
phase by about 37 % — "disk I/O throughput is the bottleneck of the whole
system performance".
"""

import numpy as np
import pytest

from conftest import dump_trace, emit, observing, run_once
from repro.analysis import (
    ascii_timeseries,
    format_table,
    performance_overhead,
    run_figure_experiment,
    windowed_rate,
)
from repro.core import MigrationConfig
from repro.units import MB

SERIES = ["putc", "write", "rewrite", "getc"]


def _phase_overheads(bed, report, baseline_end):
    out = {}
    for s in SERIES:
        result = performance_overhead(
            bed.metrics, f"bonnie:{s}",
            migration_window=(report.precopy_disk_started_at,
                              report.precopy_disk_ended_at),
            baseline_window=(0.0, baseline_end))
        out[s] = result
    return out


def test_fig6_series(benchmark, scale):
    """The four throughput curves around an unthrottled migration."""
    warmup = 120.0 if scale >= 0.5 else 60.0
    report, bed = run_once(benchmark, run_figure_experiment, "bonnie",
                           scale=scale, migration_start=warmup, tail=120.0,
                           observe=observing())
    dump_trace(bed.env, "fig6_bonnie")
    overheads = _phase_overheads(bed, report, warmup)
    rows = [[s,
             overheads[s].baseline_rate / 1024,
             overheads[s].migration_rate / 1024,
             f"{overheads[s].overhead_fraction * 100:.0f} %"]
            for s in SERIES]
    # Render the figure's curve: aggregate write-phase throughput.
    centres, rates = windowed_rate(bed.metrics, "bonnie:write",
                                   max(bed.env.now / 72, 1.0),
                                   t_end=bed.env.now)
    chart = ""
    if centres.size:
        chart = ascii_timeseries(
            centres, rates / 1024,
            width=72, height=10,
            title=f"Figure 6 — Bonnie++ write(2) throughput (KB/s),"
                  f" scale={scale}",
            marks={"migration start": report.started_at,
                   "migration end": report.ended_at}) + "\n\n"
    emit(benchmark, "Figure 6",
         chart + format_table(
             ["series", "baseline (KB/s)", "during mig (KB/s)", "drop"],
             rows,
             title=f"Figure 6 — Bonnie++ during migration (scale={scale})"),
         **{f"{s}_drop": overheads[s].overhead_fraction for s in SERIES})
    # Paper's shape: clearly visible degradation on the write-heavy curves.
    write_drops = [overheads[s].overhead_fraction
                   for s in ("write", "rewrite")]
    assert max(write_drops) > 0.2
    assert report.consistency_verified


def test_fig6_rate_limit_study(benchmark, scale):
    """§VI-C-3: limiting migration bandwidth halves the impact, +37 % time."""
    warmup = 60.0

    def run_both():
        out = {}
        # ~36 MB/s = ~73 % of the unthrottled effective rate, the paper's
        # trade-off point (+37 % pre-copy for ~half the guest impact).
        for label, limit in (("unlimited", None), ("limited", 36 * MB)):
            cfg = MigrationConfig(rate_limit=limit)
            report, bed = run_figure_experiment(
                "bonnie", scale=scale, migration_start=warmup, tail=60.0,
                config=cfg)
            overheads = _phase_overheads(bed, report, warmup)
            impact = float(np.mean([overheads[s].overhead_fraction
                                    for s in ("write", "rewrite")]))
            precopy = (report.precopy_disk_ended_at
                       - report.precopy_disk_started_at)
            out[label] = (impact, precopy, report)
        return out

    results = run_once(benchmark, run_both)
    unl_impact, unl_pre, _ = results["unlimited"]
    lim_impact, lim_pre, _ = results["limited"]
    lengthening = (lim_pre / unl_pre - 1.0) * 100 if unl_pre else 0.0
    reduction = (1.0 - lim_impact / unl_impact) * 100 if unl_impact else 0.0
    rows = [
        ["impact reduction from limiting", "~50 %", f"{reduction:.0f} %"],
        ["pre-copy lengthening", "~37 %", f"{lengthening:.0f} %"],
        ["unlimited impact", "-", f"{unl_impact * 100:.0f} %"],
        ["limited impact", "-", f"{lim_impact * 100:.0f} %"],
        ["unlimited pre-copy (s)", "-", unl_pre],
        ["limited pre-copy (s)", "-", lim_pre],
    ]
    emit(benchmark, "Figure 6 rate limit",
         format_table(["metric", "paper", "measured"], rows,
                      title=f"§VI-C-3 — migration rate limiting"
                            f" (scale={scale})"),
         impact_reduction=reduction, precopy_lengthening=lengthening)
    assert lim_impact < unl_impact          # limiting helps the guest
    assert lim_pre > 1.15 * unl_pre         # ...at the cost of a longer copy
