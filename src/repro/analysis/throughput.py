"""Throughput-derived metrics: performance overhead and disruption time.

These are the paper's two client-perspective metrics (§III-A): *overhead*
compares service throughput during migration with the unmigrated baseline;
*disruption time* is how long clients observe degraded responsiveness.
Both are computed post-hoc from the series a workload records into the
environment's :class:`~repro.obs.MetricsRegistry`: a ``<workload>:<series>``
counter per throughput series, a histogram per latency series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..obs import MetricsRegistry


def read_series(metrics: MetricsRegistry,
                series: str) -> tuple[np.ndarray, np.ndarray]:
    """``(times, amounts)`` of ``series``, empty if it was never recorded.

    A counter stores cumulative totals; its amounts are the increments,
    recovered by differencing.  That is exact while the totals are
    integers below 2**53, as the byte counts workloads record are.  Other
    instruments return their samples as recorded.
    """
    inst = metrics.get(series)
    if inst is None or not inst.times:
        return np.empty(0), np.empty(0)
    times = np.array(inst.times)
    values = np.array(inst.values)
    if inst.kind == "counter":
        values = np.diff(values, prepend=0.0)
    return times, values


def mean_rate(metrics: MetricsRegistry, series: str, t_start: float,
              t_end: float) -> float:
    """Mean bytes/second of ``series`` over ``[t_start, t_end)``."""
    if t_end <= t_start:
        return 0.0
    times, values = read_series(metrics, series)
    if times.size == 0:
        return 0.0
    mask = (times >= t_start) & (times < t_end)
    return float(values[mask].sum()) / (t_end - t_start)


def _bins(window: float, t_start: float,
          t_end: float) -> tuple[np.ndarray, np.ndarray]:
    """``(edges, widths)`` of bins every ``window`` from ``t_start``; the
    last bin ends at ``t_end``, so it may be narrower than ``window``
    (one that is a full window up to rounding counts as a full one)."""
    inner = t_start + window * np.arange(
        1, math.ceil((t_end - t_start) / window))
    edges = np.concatenate(([t_start], inner[inner < t_end], [t_end]))
    widths = np.full(edges.size - 1, float(window))
    last = t_end - edges[-2]
    if not math.isclose(last, window):
        widths[-1] = last
    return edges, widths


def windowed_rate(
    metrics: MetricsRegistry, series: str, window: float,
    t_start: float = 0.0, t_end: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Aggregate a series of per-event amounts into a rate per ``window``.

    Returns ``(bin_centres, rate)`` where ``rate[i]`` is the sum of amounts
    recorded inside bin ``i`` divided by that bin's width — i.e. a
    throughput curve like the paper's Figures 5 and 6.  Bins run from
    ``t_start`` to ``t_end`` (default: the last sample); the last bin ends
    at ``t_end`` and includes a sample stamped exactly there.
    """
    if window <= 0:
        raise ValueError(f"window must be positive, got {window}")
    times, values = read_series(metrics, series)
    if times.size and t_end is None:
        t_end = times[-1]
    if times.size == 0 or t_end <= t_start:
        return np.empty(0), np.empty(0)
    edges, widths = _bins(window, t_start, t_end)
    sums, _ = np.histogram(times, bins=edges, weights=values)
    return (edges[:-1] + edges[1:]) / 2.0, sums / widths


@dataclass
class OverheadResult:
    """Throughput comparison across a migration window."""

    baseline_rate: float      #: bytes/s without migration influence
    migration_rate: float     #: bytes/s while migrating

    @property
    def relative_throughput(self) -> float:
        """``migration / baseline`` (1.0 = no visible impact)."""
        if self.baseline_rate == 0:
            return 1.0
        return self.migration_rate / self.baseline_rate

    @property
    def overhead_fraction(self) -> float:
        """Throughput lost to the migration (0.0 = none)."""
        return max(0.0, 1.0 - self.relative_throughput)


def performance_overhead(
    metrics: MetricsRegistry, series: str,
    migration_window: tuple[float, float],
    baseline_window: tuple[float, float],
) -> OverheadResult:
    """Paper metric: service throughput during vs without migration."""
    return OverheadResult(
        baseline_rate=mean_rate(metrics, series, *baseline_window),
        migration_rate=mean_rate(metrics, series, *migration_window),
    )


def disruption_time(
    metrics: MetricsRegistry, series: str,
    window: tuple[float, float],
    baseline_rate: float,
    bin_width: float = 1.0,
    threshold: float = 0.9,
) -> float:
    """Seconds within ``window`` where throughput fell below
    ``threshold * baseline_rate`` — the client-visible degradation time."""
    if baseline_rate <= 0 or window[1] <= window[0]:
        return 0.0
    _, rates = windowed_rate(metrics, series, bin_width, *window)
    if rates.size == 0:
        return window[1] - window[0]
    _, widths = _bins(bin_width, *window)
    return float(widths[rates < threshold * baseline_rate].sum())
