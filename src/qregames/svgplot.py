"""Minimal static SVG charts for sweep outputs.

Hand-rolled rather than delegating to a plotting library so that identical
inputs produce byte-identical files; reproducibility of CLI artifacts is a
contract, and chart libraries embed volatile metadata.
"""

from __future__ import annotations

import math
from typing import Sequence

_WIDTH, _HEIGHT = 640, 420
_MARGIN = 60

# One fill per series up to nine, the fair scenario's area count; more series cycle.
_BAR_COLORS = ("#c23b3b", "#3b8a4e", "#3b5fc2", "#d98c1f", "#8a4ec2",
               "#2a9d9d", "#c25fa0", "#7a6a3b", "#5f5f5f")


def _fmt(v: float) -> str:
    return f"{v:.2f}" if abs(v) >= 0.01 or v == 0 else f"{v:.2e}"


def _scale(values: Sequence[float], lo_px: float, hi_px: float, log: bool = False):
    vals = [math.log10(v) if log else v for v in values]
    vmin, vmax = min(vals, default=0.0), max(vals, default=0.0)  # no points: axes alone
    if vmax - vmin < 1e-300:
        vmax = vmin + 1.0

    def to_px(v: float) -> float:
        t = math.log10(v) if log else v
        return lo_px + (t - vmin) / (vmax - vmin) * (hi_px - lo_px)

    return to_px


def _frame(title: str) -> str:
    """The opening of every chart: the svg tag, white background, title and x axis."""
    return f"""<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">
<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>
<text x="{_WIDTH // 2}" y="24" font-size="14" text-anchor="middle">{title}</text>
<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" y2="{_HEIGHT - _MARGIN}" stroke="black"/>"""


def line_chart(
    x: Sequence[float],
    y: Sequence[float],
    x_label: str,
    y_label: str,
    title: str,
) -> str:
    """A single polyline with markers and axis labels, y on a log scale that
    plots a value below 1e-16, such as 0, at 1e-16."""
    y = [max(v, 1e-16) for v in y]
    sx = _scale(x, _MARGIN, _WIDTH - _MARGIN)
    sy = _scale(y, _HEIGHT - _MARGIN, _MARGIN, log=True)
    points = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
    markers = "".join(
        f'<circle cx="{sx(a):.2f}" cy="{sy(b):.2f}" r="3" fill="#3b5fc2"/>'
        for a, b in zip(x, y)
    )
    ticks = "".join(
        f'<text x="{sx(a):.2f}" y="{_HEIGHT - _MARGIN + 18}" font-size="10" '
        f'text-anchor="middle">{_fmt(a)}</text>'
        for a in x
    )
    return f"""{_frame(title)}
<line x1="{_MARGIN}" y1="{_MARGIN}" x2="{_MARGIN}" y2="{_HEIGHT - _MARGIN}" stroke="black"/>
<text x="{_WIDTH // 2}" y="{_HEIGHT - 16}" font-size="12" text-anchor="middle">{x_label}</text>
<text x="18" y="{_HEIGHT // 2}" font-size="12" text-anchor="middle" transform="rotate(-90 18 {_HEIGHT // 2})">{y_label}</text>
{ticks}
<polyline fill="none" stroke="#3b5fc2" stroke-width="1.5" points="{points}"/>
{markers}
</svg>
"""


def stacked_bars(
    labels: Sequence[str],
    series: Sequence[Sequence[float]],
    series_names: Sequence[str],
    title: str,
) -> str:
    """One bar per label, stacked contributions per series."""
    n = len(labels)
    total_max = max(sum(col) for col in zip(*series)) if n else 1.0
    slot = (_WIDTH - 2 * _MARGIN) / max(n, 1)
    bar_w = slot * 0.6
    parts = []
    for j, label in enumerate(labels):
        x0 = _MARGIN + j * slot + 0.2 * slot
        y_base = _HEIGHT - _MARGIN
        for s, values in enumerate(series):
            h = values[j] / total_max * (_HEIGHT - 2 * _MARGIN)
            y_base -= h
            parts.append(
                f'<rect x="{x0:.2f}" y="{y_base:.2f}" width="{bar_w:.2f}" '
                f'height="{h:.2f}" fill="{_BAR_COLORS[s % len(_BAR_COLORS)]}"/>'
            )
        parts.append(
            f'<text x="{x0 + bar_w / 2:.2f}" y="{_HEIGHT - _MARGIN + 16}" '
            f'font-size="10" text-anchor="middle">{label}</text>'
        )
    legend = "".join(
        f'<rect x="{_WIDTH - _MARGIN - 110}" y="{_MARGIN + 18 * s}" width="12" height="12" '
        f'fill="{_BAR_COLORS[s % len(_BAR_COLORS)]}"/>'
        f'<text x="{_WIDTH - _MARGIN - 92}" y="{_MARGIN + 18 * s + 10}" font-size="11">{name}</text>'
        for s, name in enumerate(series_names)
    )
    body = "\n".join(parts)
    return f"""{_frame(title)}
{body}
{legend}
</svg>
"""
