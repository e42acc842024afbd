"""Measurement and reporting: throughput metrics, write locality,
table rendering, and canned experiment setups for the paper's evaluation."""

from .experiments import (
    FULL_DISK_BLOCKS,
    FULL_DISK_MIB,
    FULL_MEM_PAGES,
    PAPER_LOCALITY,
    PAPER_TABLE1,
    PAPER_TABLE2,
    Testbed,
    build_testbed,
    make_workload,
    run_figure_experiment,
    run_locality_experiment,
    run_table1_experiment,
    run_table2_experiment,
    run_tracking_overhead_experiment,
)
from .locality import LocalityStats, WriteLocalityTracker, attach_tracker
from .plotting import ascii_timeseries
from .report import format_table
from .throughput import (
    OverheadResult,
    disruption_time,
    mean_rate,
    performance_overhead,
    read_series,
    windowed_rate,
)

__all__ = [
    "FULL_DISK_BLOCKS",
    "FULL_DISK_MIB",
    "FULL_MEM_PAGES",
    "LocalityStats",
    "OverheadResult",
    "PAPER_LOCALITY",
    "PAPER_TABLE1",
    "PAPER_TABLE2",
    "Testbed",
    "WriteLocalityTracker",
    "ascii_timeseries",
    "attach_tracker",
    "build_testbed",
    "disruption_time",
    "format_table",
    "make_workload",
    "mean_rate",
    "performance_overhead",
    "read_series",
    "run_figure_experiment",
    "run_locality_experiment",
    "run_table1_experiment",
    "run_table2_experiment",
    "run_tracking_overhead_experiment",
    "windowed_rate",
]
