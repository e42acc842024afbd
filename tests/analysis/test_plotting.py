"""Unit tests for ASCII plotting helpers."""

import numpy as np

from repro.analysis import ascii_timeseries


class TestAsciiTimeseries:
    def test_no_data(self):
        out = ascii_timeseries(np.empty(0), np.empty(0), title="t")
        assert "(no data)" in out

    def test_dimensions(self):
        t = np.linspace(0, 10, 50)
        v = np.sin(t) + 1.5
        out = ascii_timeseries(t, v, width=40, height=6, title="curve")
        lines = out.splitlines()
        assert lines[0] == "curve"
        plot_lines = [l for l in lines if "│" in l or "┤" in l]
        assert len(plot_lines) == 6

    def test_marks_drawn_and_legend(self):
        t = np.linspace(0, 100, 200)
        v = np.ones_like(t)
        out = ascii_timeseries(t, v, width=50, height=4,
                               marks={"start": 25.0})
        assert "|" in out
        assert "| = start" in out

    def test_step_shape_visible(self):
        """A throughput dip must produce visibly lower columns."""
        t = np.linspace(0, 90, 300)
        v = np.where((t > 30) & (t < 60), 10.0, 100.0)
        out = ascii_timeseries(t, v, width=60, height=8)
        top_row = [l for l in out.splitlines() if "┤" in l][0]
        body = top_row.split("┤", 1)[1]
        # The top row is filled at the edges and empty in the dip.
        third = len(body) // 3
        assert "█" in body[:third]
        assert "█" not in body[third + 2:2 * third - 2]

    def test_axis_labels(self):
        t = np.array([0.0, 50.0])
        v = np.array([1.0, 2.0])
        out = ascii_timeseries(t, v, xlabel="seconds", ylabel="MB/s")
        assert "seconds" in out
        assert "y: MB/s" in out
