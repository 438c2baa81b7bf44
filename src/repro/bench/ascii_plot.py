"""Terminal plotting for the figure experiments.

The paper's figures are line and bar charts; these helpers render the
same series as ASCII so ``python -m repro experiment fig8`` (etc.) can
show the curve shapes, not just the numbers.  No plotting dependency is
available offline, and the shapes — crossovers, plateaus, orderings —
are exactly what the reproduction targets.
"""

from __future__ import annotations

from typing import Dict, List

_MARKERS = "*o+x#@%&"


def _scale(value: float, lo: float, hi: float, size: int) -> int:
    if hi <= lo:
        return 0
    position = (value - lo) / (hi - lo)
    return min(size - 1, max(0, round(position * (size - 1))))


def line_chart(
    series: Dict[str, Dict[float, float]],
    title: str = "",
    width: int = 64,
    height: int = 16,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Plot ``label -> {x: y}`` series on one shared-axes ASCII grid."""
    if not series:
        raise ValueError("no series to plot")
    xs = sorted({x for points in series.values() for x in points})
    ys = [y for points in series.values() for y in points.values()]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(min(ys), 0.0), max(ys)
    grid: List[List[str]] = [[" "] * width for _ in range(height)]

    for index, (label, points) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        previous = None
        for x in sorted(points):
            col = _scale(x, lo_x, hi_x, width)
            row = height - 1 - _scale(points[x], lo_y, hi_y, height)
            if previous is not None:
                # Straight-line interpolation between adjacent points.
                prev_col, prev_row = previous
                steps = max(abs(col - prev_col), abs(row - prev_row), 1)
                for step in range(1, steps):
                    c = prev_col + (col - prev_col) * step // steps
                    r = prev_row + (row - prev_row) * step // steps
                    if grid[r][c] == " ":
                        grid[r][c] = "."
            grid[row][col] = marker
            previous = (col, row)

    lines = []
    if title:
        lines.append(title)
    if y_label:
        lines.append(y_label)
    top = f"{hi_y:,.6g}"
    bottom = f"{lo_y:,.6g}"
    gutter = max(len(top), len(bottom)) + 1
    for r, row in enumerate(grid):
        if r == 0:
            prefix = top.rjust(gutter)
        elif r == height - 1:
            prefix = bottom.rjust(gutter)
        else:
            prefix = " " * gutter
        lines.append(prefix + "|" + "".join(row))
    lines.append(" " * gutter + "+" + "-" * width)
    x_axis = f"{lo_x:,.6g}".ljust(width - 8) + f"{hi_x:,.6g}"
    lines.append(" " * (gutter + 1) + x_axis + ("  " + x_label if x_label else ""))
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {label}"
        for i, label in enumerate(series)
    )
    lines.append(" " * (gutter + 1) + legend)
    return "\n".join(lines)


def bar_chart(
    values: Dict[str, float],
    title: str = "",
    width: int = 50,
    unit: str = "",
) -> str:
    """Horizontal bars for ``label -> value`` (e.g. Figure 7's groups)."""
    if not values:
        raise ValueError("no bars to plot")
    peak = max(values.values())
    label_width = max(len(label) for label in values)
    lines = [title] if title else []
    for label, value in values.items():
        length = 0 if value <= 0 else max(1, _scale(value, 0, peak, width) + 1)
        bar = "#" * length
        lines.append(
            f"{label.ljust(label_width)} |{bar.ljust(width)} "
            f"{value:,.4g}{unit}"
        )
    return "\n".join(lines)


def grouped_bar_chart(
    groups: Dict[str, Dict[str, float]],
    title: str = "",
    width: int = 40,
    unit: str = "",
) -> str:
    """Bars grouped the way Figures 7/9/11 group them (by projection)."""
    lines = [title] if title else []
    peak = max(
        value for bars in groups.values() for value in bars.values()
    )
    label_width = max(len(label) for bars in groups.values() for label in bars)
    for group, bars in groups.items():
        lines.append(f"{group}:")
        for label, value in bars.items():
            bar = "#" * (_scale(value, 0, peak, width) + 1)
            lines.append(
                f"  {label.ljust(label_width)} |{bar.ljust(width)} "
                f"{value:,.4g}{unit}"
            )
    return "\n".join(lines)
