"""Plain-text line plots and CSV emission for the figure reproductions."""

from __future__ import annotations

import io
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError


def ascii_plot(
    xs: Sequence[float],
    series: Sequence[Tuple[str, Sequence[float]]],
    width: int = 64,
    title: Optional[str] = None,
    x_label: str = "x",
    y_label: str = "y",
) -> str:
    """Render one or more series as an ASCII scatter/line chart.

    Good enough to eyeball the Figure 6 shape in a terminal/log; the CSV
    emitters carry the exact values.
    """
    if not xs or not series:
        raise ConfigurationError("plot needs xs and at least one series")
    for name, ys in series:
        if len(ys) != len(xs):
            raise ConfigurationError(
                f"series {name!r} has {len(ys)} points for {len(xs)} xs"
            )
    markers = "*o+x#@"
    height = 16
    all_y = [y for _, ys in series for y in ys]
    y_min, y_max = min(all_y), max(all_y)
    x_min, x_max = min(xs), max(xs)
    y_span = (y_max - y_min) or 1.0
    x_span = (x_max - x_min) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for si, (name, ys) in enumerate(series):
        m = markers[si % len(markers)]
        for x, y in zip(xs, ys):
            col = int((x - x_min) / x_span * (width - 1))
            row = height - 1 - int((y - y_min) / y_span * (height - 1))
            grid[row][col] = m
    out = io.StringIO()
    if title:
        out.write(f"=== {title} ===\n")
    for i, row in enumerate(grid):
        label = ""
        if i == 0:
            label = f"{y_max:.3g}"
        elif i == height - 1:
            label = f"{y_min:.3g}"
        out.write(f"{label:>10} |{''.join(row)}|\n")
    out.write(f"{'':>10}  {x_label}: {x_min:g} .. {x_max:g}   ({y_label})\n")
    for si, (name, _) in enumerate(series):
        out.write(f"{'':>10}  {markers[si % len(markers)]} = {name}\n")
    return out.getvalue()


def to_csv(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Simple CSV emission (no quoting needs arise in our numeric tables)."""
    if not headers:
        raise ConfigurationError("csv needs at least one column")
    lines = [",".join(str(h) for h in headers)]
    for r in rows:
        if len(r) != len(headers):
            raise ConfigurationError(
                f"row has {len(r)} cells for {len(headers)} columns"
            )
        lines.append(",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in r))
    return "\n".join(lines)
