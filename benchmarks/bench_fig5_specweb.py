"""Figure 5 — SPECweb banking throughput during migration.

Paper (CLUSTER'08, §VI-C-1, Fig. 5): the server's throughput curve over
~1700 s, with the migration in the middle, shows **no noticeable drop**.
This benchmark regenerates the series (time, MB/s) and checks the
overhead/disruption metrics quantitatively.
"""

import numpy as np

from conftest import dump_trace, emit, observing, run_once
from repro.analysis import (
    ascii_timeseries,
    disruption_time,
    format_table,
    mean_rate,
    performance_overhead,
    run_figure_experiment,
    windowed_rate,
)


def test_fig5_series(benchmark, scale):
    report, bed = run_once(benchmark, run_figure_experiment, "specweb",
                           scale=scale, migration_start=60.0, tail=120.0,
                           observe=observing())
    dump_trace(bed.env, "fig5_specweb")
    metrics = bed.metrics
    window = 10.0
    centres, rates = windowed_rate(metrics, "specweb:throughput", window,
                                   t_end=bed.env.now)
    # Print a decimated series: the figure's curve, one row per ~60 s.
    step = max(len(centres) // 24, 1)
    rows = [[f"{t:.0f}", r / 2**20] for t, r in
            zip(centres[::step], rates[::step])]
    overhead = performance_overhead(
        metrics, "specweb:throughput",
        migration_window=(report.started_at, report.ended_at),
        baseline_window=(0.0, 60.0))
    baseline = mean_rate(metrics, "specweb:throughput", 0.0, 60.0)
    disrupted = disruption_time(metrics, "specweb:throughput",
                                (report.started_at, report.ended_at),
                                baseline, bin_width=5.0, threshold=0.85)
    chart = ascii_timeseries(
        centres, rates / 2**20, width=72, height=10,
        title=f"Figure 5 — SPECweb throughput (MB/s), scale={scale}",
        marks={"migration start": report.started_at,
               "migration end": report.ended_at})
    table = format_table(["time (s)", "throughput (MB/s)"], rows,
                         title=f"Figure 5 — series (migration "
                               f"{report.started_at:.0f}-{report.ended_at:.0f} s)")
    table = chart + "\n\n" + table
    summary = format_table(
        ["metric", "paper", "measured"],
        [["throughput drop during migration", "no noticeable drop",
          f"{overhead.overhead_fraction * 100:.1f} %"],
         ["disruption time (s)", "~0", disrupted]],
        title="Figure 5 — summary")
    emit(benchmark, "Figure 5", table + "\n\n" + summary,
         overhead_percent=overhead.overhead_fraction * 100,
         disruption_s=disrupted)

    # The paper's claim: the curve stays flat through the migration.
    assert overhead.overhead_fraction < 0.12
    assert report.consistency_verified
