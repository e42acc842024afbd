"""Time-series recording for simulation metrics (throughput plots, etc.)."""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import Environment


class Timeline:
    """Append-only recorder of ``(time, value)`` samples per named series.

    Used by throughput monitors and the benchmark harness to regenerate the
    paper's figures.  Samples are buffered in plain lists (cheap appends) and
    materialised as NumPy arrays on demand.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._samples: dict[str, list[tuple[float, float]]] = defaultdict(list)

    def record(self, series: str, value: float) -> None:
        """Record ``value`` for ``series`` at the current simulated time."""
        self._samples[series].append((self.env.now, value))

    def record_at(self, series: str, time: float, value: float) -> None:
        """Record a sample with an explicit timestamp."""
        self._samples[series].append((time, value))

    @property
    def series_names(self) -> list[str]:
        return sorted(self._samples)

    def series(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(times, values)`` arrays for ``name`` (empty if unknown)."""
        samples = self._samples.get(name, [])
        if not samples:
            return np.empty(0), np.empty(0)
        arr = np.asarray(samples, dtype=np.float64)
        return arr[:, 0], arr[:, 1]

    def windowed_rate(
        self, name: str, window: float, t_end: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Aggregate a series of per-event amounts into a rate per ``window``.

        Returns ``(bin_centres, rate)`` where ``rate[i]`` is the sum of values
        recorded inside bin ``i`` divided by the window length — i.e. a
        throughput curve like the paper's Figures 5 and 6.
        """
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        times, values = self.series(name)
        if times.size == 0:
            return np.empty(0), np.empty(0)
        end = t_end if t_end is not None else times[-1] + window
        edges = np.arange(0.0, end + window, window)
        sums, _ = np.histogram(times, bins=edges, weights=values)
        centres = (edges[:-1] + edges[1:]) / 2.0
        return centres, sums / window

    def total(self, name: str) -> float:
        """Sum of all values recorded for ``name``."""
        _, values = self.series(name)
        return float(values.sum()) if values.size else 0.0
