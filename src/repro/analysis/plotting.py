"""Terminal plotting: render the paper's figures as ASCII charts.

The benchmark harness regenerates Figures 5 and 6 as time series; these
helpers draw them directly in the captured pytest output so the curve
shape (flat for SPECweb, collapsed-then-recovered for Bonnie++) is
visible without any plotting dependency.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def ascii_timeseries(
    times: np.ndarray,
    values: np.ndarray,
    width: int = 72,
    height: int = 12,
    title: str = "",
    ylabel: str = "",
    xlabel: str = "time (s)",
    marks: Optional[dict] = None,
) -> str:
    """A multi-line ASCII chart of one series.

    ``marks`` maps labels to x positions (e.g. migration start/end); they
    are drawn as vertical guides in the plot area.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.size == 0:
        return f"{title}\n(no data)"

    t_lo, t_hi = float(times.min()), float(times.max())
    span = max(t_hi - t_lo, 1e-12)
    v_hi = max(float(values.max()), 1e-12)

    # Bin the series to the plot width (mean per column).
    columns = np.full(width, np.nan)
    idx = np.minimum(((times - t_lo) / span * (width - 1)).astype(int),
                     width - 1)
    for col in range(width):
        mask = idx == col
        if mask.any():
            columns[col] = values[mask].mean()
    # Forward-fill gaps so the curve is continuous.
    last = 0.0
    for col in range(width):
        if np.isnan(columns[col]):
            columns[col] = last
        else:
            last = columns[col]

    mark_cols = {}
    for label, x in (marks or {}).items():
        col = int(np.clip((x - t_lo) / span * (width - 1), 0, width - 1))
        mark_cols[col] = label

    rows = []
    if title:
        rows.append(title)
    levels = np.clip(columns / v_hi, 0.0, 1.0) * height
    for row in range(height, 0, -1):
        cells = []
        for col in range(width):
            if col in mark_cols:
                cells.append("|")
            elif levels[col] >= row - 0.5:
                cells.append("█" if levels[col] >= row else "▄")
            else:
                cells.append(" ")
        prefix = (f"{v_hi * row / height:10.3g} ┤" if row in (height, 1)
                  else " " * 10 + " │")
        rows.append(prefix + "".join(cells))
    rows.append(" " * 10 + " └" + "─" * width)
    left = f"{t_lo:.0f}"
    right = f"{t_hi:.0f} {xlabel}"
    rows.append(" " * 12 + left
                + " " * max(width - len(left) - len(right), 1) + right)
    if mark_cols:
        legend = ", ".join(f"| = {label}" for label in mark_cols.values())
        rows.append(" " * 12 + legend)
    if ylabel:
        rows.append(" " * 12 + f"y: {ylabel}")
    return "\n".join(rows)
