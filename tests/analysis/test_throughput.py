"""Unit tests for throughput-derived metrics over registry series."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    disruption_time,
    mean_rate,
    performance_overhead,
    read_series,
    windowed_rate,
)
from repro.obs import MetricsRegistry
from repro.sim import Environment


def recorded(samples, kind="counter", name="x"):
    """A registry whose ``name`` series holds ``samples``: ``(time,
    amount)`` pairs in time order, incremented (counter) or observed
    (histogram) at their simulated times."""
    env = Environment()
    metrics = MetricsRegistry(env)
    inst = getattr(metrics, kind)(name)
    add = inst.inc if kind == "counter" else inst.observe
    for t, amount in samples:
        env.run(until=t)
        add(amount)
    return metrics


@pytest.fixture
def metrics():
    # 100 B/s for t in [0, 10), then degraded 40 B/s for [10, 20),
    # then recovered for [20, 30).
    return recorded([(t + 0.5, 100) for t in range(10)]
                    + [(t + 0.5, 40) for t in range(10, 20)]
                    + [(t + 0.5, 100) for t in range(20, 30)])


class TestReadSeries:
    def test_counter_amounts_are_increments(self):
        times, values = read_series(recorded([(0.0, 1), (2.0, 3)]), "x")
        assert times.tolist() == [0.0, 2.0]
        assert values.tolist() == [1.0, 3.0]

    def test_histogram_values_as_observed(self):
        metrics = recorded([(0.0, 0.5), (1.0, 0.25)], kind="histogram")
        times, values = read_series(metrics, "x")
        assert times.tolist() == [0.0, 1.0]
        assert values.tolist() == [0.5, 0.25]

    def test_unknown_series_is_empty(self, metrics):
        times, values = read_series(metrics, "nope")
        assert times.size == 0 and values.size == 0

    def test_empty_series_is_empty(self):
        metrics = MetricsRegistry(Environment())
        metrics.counter("x")
        times, values = read_series(metrics, "x")
        assert times.size == 0 and values.size == 0


class TestWindowedRate:
    def test_rate_per_window(self):
        # 10 bytes at t=0.5, 30 bytes at t=1.5 -> rates 10/s then 30/s
        metrics = recorded([(0.5, 10), (1.5, 30)])
        centres, rate = windowed_rate(metrics, "x", window=1.0, t_end=2.0)
        assert np.allclose(centres, [0.5, 1.5])
        assert np.allclose(rate, [10.0, 30.0])

    def test_counter_deltas_per_bucket(self):
        metrics = recorded([(0.0, 10), (1.5, 10), (3.5, 5)])
        _, rate = windowed_rate(metrics, "x", window=1.0, t_end=4.0)
        assert rate.tolist() == [10.0, 10.0, 0.0, 5.0]

    def test_rejects_bad_window(self, metrics):
        with pytest.raises(ValueError):
            windowed_rate(metrics, "x", window=0)

    def test_unknown_series_is_empty(self, metrics):
        centres, rate = windowed_rate(metrics, "nope", window=1.0)
        assert centres.size == 0 and rate.size == 0


class TestMeanRate:
    def test_windowed(self, metrics):
        assert mean_rate(metrics, "x", 0, 10) == pytest.approx(100.0)
        assert mean_rate(metrics, "x", 10, 20) == pytest.approx(40.0)

    def test_empty_series(self, metrics):
        assert mean_rate(metrics, "missing", 0, 10) == 0.0

    def test_degenerate_window(self, metrics):
        assert mean_rate(metrics, "x", 5, 5) == 0.0


class TestOverhead:
    def test_overhead_fraction(self, metrics):
        result = performance_overhead(metrics, "x",
                                      migration_window=(10, 20),
                                      baseline_window=(0, 10))
        assert result.relative_throughput == pytest.approx(0.4)
        assert result.overhead_fraction == pytest.approx(0.6)

    def test_no_impact(self, metrics):
        result = performance_overhead(metrics, "x",
                                      migration_window=(20, 30),
                                      baseline_window=(0, 10))
        assert result.overhead_fraction == pytest.approx(0.0)

    def test_zero_baseline(self, metrics):
        result = performance_overhead(metrics, "missing", (0, 1), (1, 2))
        assert result.relative_throughput == 1.0


class TestDisruption:
    def test_counts_degraded_seconds(self, metrics):
        degraded = disruption_time(metrics, "x", window=(0, 30),
                                   baseline_rate=100.0, threshold=0.9)
        assert degraded == pytest.approx(10.0)

    def test_no_disruption(self, metrics):
        assert disruption_time(metrics, "x", window=(0, 10),
                               baseline_rate=100.0) == 0.0

    def test_empty_series_counts_whole_window(self, metrics):
        assert disruption_time(metrics, "missing", window=(0, 5),
                               baseline_rate=100.0) == 5.0

    def test_zero_baseline(self, metrics):
        assert disruption_time(metrics, "x", (0, 10), 0.0) == 0.0

    def test_never_exceeds_the_window(self):
        """A partial last bin counts its own width, not a full bin's."""
        steady = recorded([(t + 0.5, 100) for t in range(30)])
        assert disruption_time(steady, "x", window=(0, 12.5),
                               baseline_rate=1000.0, bin_width=5.0) == 12.5

    def test_last_bin_ignores_samples_past_the_window(self):
        """A series that runs steadily to the window's end is not
        degraded there, however it continues afterwards."""
        metrics = recorded([(t + 0.5, 100) for t in range(12)])
        assert disruption_time(metrics, "x", window=(0, 12),
                               baseline_rate=100.0, bin_width=5.0) == 0.0


def _latencies(samples):
    return recorded(samples, kind="histogram", name="lat")


amounts = st.integers(min_value=0, max_value=10**9)
times = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@st.composite
def counter_series(draw):
    samples = draw(st.lists(st.tuples(times, amounts), max_size=60))
    return sorted(samples, key=lambda s: s[0])


class TestExactSums:
    """Rates over a counter series are sums of the recorded amounts,
    exactly: the per-sample amounts come back bit for bit from the
    counter's cumulative totals."""

    @settings(max_examples=60, deadline=None)
    @given(samples=counter_series(),
           t_start=st.integers(0, 50), span=st.integers(1, 60))
    def test_mean_rate(self, samples, t_start, span):
        t_end = t_start + span
        inside = sum(a for t, a in samples if t_start <= t < t_end)
        assert mean_rate(recorded(samples), "x", t_start, t_end) \
            == float(inside) / span

    @settings(max_examples=60, deadline=None)
    @given(samples=counter_series().filter(bool),
           t_start=st.integers(0, 50), quarters=st.integers(1, 240),
           window=st.integers(1, 10))
    def test_windowed_rate_and_disruption(self, samples, t_start, quarters,
                                          window):
        # Bins every ``window`` seconds from ``t_start``; the last one
        # ends at ``t_end`` and holds the samples stamped exactly there.
        t_end = t_start + quarters / 4
        edges = [t_start + k * window for k in range(60)
                 if t_start + k * window < t_end] + [t_end]
        sums = [0] * (len(edges) - 1)
        for t, a in samples:
            if edges[0] <= t <= t_end:
                sums[sum(1 for e in edges[1:-1] if e <= t)] += a
        widths = [hi - lo for lo, hi in zip(edges, edges[1:])]
        metrics = recorded(samples)

        _, rate = windowed_rate(metrics, "x", window, t_start, t_end)
        assert rate.tolist() == [s / w for s, w in zip(sums, widths)]

        baseline = float(sum(a for _, a in samples)) / 100.0
        expected = sum(w for s, w in zip(sums, widths)
                       if s / w < 0.9 * baseline)
        assert disruption_time(metrics, "x", (t_start, t_end), baseline,
                               bin_width=window) == expected
