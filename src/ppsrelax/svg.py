"""Minimal SVG line plots, emitted as direct markup.

CSV files are the normative output of the scenario runners; these plots
are a best-effort visual companion with no charting dependency.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["line_plot"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 36
_MARGIN_BOTTOM = 48
_WIDTH = 720
_HEIGHT = 480
_TICK_COUNT = 5


def _nice_ticks(lo: float, hi: float) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / _TICK_COUNT
    power = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * power:
            step = mult * power
            break
    start = math.ceil(lo / step) * step
    ticks = []
    value = start
    while value <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(value) < 1e-12 * step else value)
        value += step
    return ticks


def _fmt(value: float) -> str:
    return format(value, ".6g")


def line_plot(
    path,
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write a multi-series line plot to ``path``.

    ``series`` is a list of (label, xs, ys) with equal-length xs/ys,
    drawn under ``title`` with the axis labels ``xlabel`` and ``ylabel``.
    """
    from xml.sax.saxutils import escape  # imported here: it pulls in urllib.request

    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("no data to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_LEFT}" y="{_MARGIN_TOP}" width="{plot_w}" '
        f'height="{plot_h}" fill="none" stroke="#444" stroke-width="1"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
        f'font-size="14" font-family="sans-serif">{escape(title)}</text>',
    ]
    for tick in _nice_ticks(x_lo, x_hi):
        x = px(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MARGIN_TOP + plot_h}" x2="{x:.2f}" '
            f'y2="{_MARGIN_TOP + plot_h + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_MARGIN_TOP + plot_h + 18}" '
            f'text-anchor="middle" font-size="11" font-family="sans-serif">'
            f"{_fmt(tick)}</text>"
        )
    for tick in _nice_ticks(y_lo, y_hi):
        y = py(tick)
        parts.append(
            f'<line x1="{_MARGIN_LEFT - 5}" y1="{y:.2f}" x2="{_MARGIN_LEFT}" '
            f'y2="{y:.2f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{_MARGIN_LEFT - 8}" y="{y + 4:.2f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{_fmt(tick)}</text>'
        )
    y_mid = _MARGIN_TOP + plot_h / 2
    parts += [
        f'<text x="{_MARGIN_LEFT + plot_w / 2:.1f}" y="{_HEIGHT - 10}" '
        f'text-anchor="middle" font-size="12" font-family="sans-serif">'
        f"{escape(xlabel)}</text>",
        f'<text x="16" y="{y_mid:.1f}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {y_mid:.1f})">'
        f"{escape(ylabel)}</text>",
    ]
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"/>'
        )
        ly = _MARGIN_TOP + 14 + 16 * i
        lx = _MARGIN_LEFT + plot_w - 120
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="11" '
            f'font-family="sans-serif">{escape(label)}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(parts) + "\n")
