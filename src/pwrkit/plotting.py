"""Dependency-free SVG rendering of ratio convergence traces.

The chart is built from f-strings with fixed-precision coordinates, so the
same trace always yields byte-identical output; that makes plots diffable
and directly comparable in tests.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from itertools import compress

import numpy as np

from .engine import ContractError, TraceTable
from .formats import _CHUNK

_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)

_MARGIN_LEFT = 58.0
_MARGIN_RIGHT = 24.0
_MARGIN_TOP = 20.0
_MARGIN_BOTTOM = 46.0
_LEGEND_WIDTH = 180.0


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _tick_step(span: float) -> float:
    """A round step from {1, 2, 5} * 10^e, from a fifth to under half of the
    span, so the axis gets two to six ticks (one where the step is lost in the
    rounding of the first tick)."""
    raw = span / 5.0
    # zero for a span of a few subnormals, and for equal ratios past 2^52, which
    # the +-0.5 widening leaves equal
    magnitude = 10.0 ** math.floor(math.log10(raw)) if raw else 0.0
    if not magnitude:
        raise ContractError("ratios lie too close together for the chart to scale them")
    for factor in (1.0, 2.0, 5.0, 10.0):
        if raw <= factor * magnitude:
            return factor * magnitude
    return 10.0 * magnitude


def _polylines(xs: list[str], ys: np.ndarray, finite: np.ndarray) -> Iterator[str]:
    """Each column's ``x,y`` points at its finite rows, space-separated; ``xs`` is
    each row's ``"x,"`` text, and the ys are formatted about ``_CHUNK`` at a time."""
    step = max(1, _CHUNK // len(xs))
    for lo in range(0, ys.shape[1], step):
        cells = list(map("{:.2f}".format, ys[:, lo : lo + step].T.ravel().tolist()))
        for j, keep in enumerate(finite[:, lo : lo + step].T.tolist()):
            col = cells[j * len(xs) : (j + 1) * len(xs)]
            yield " ".join(map(str.__add__, compress(xs, keep), compress(col, keep)))


def render_convergence_svg(trace: TraceTable, width: int = 820, height: int = 420) -> str:
    """One polyline per node of r(k) against k, with a colour legend.

    Non-finite sentinel ratios are dropped from their polyline.  A trace with
    no finite ratio, or whose finite ratios span past double range or too little
    for a tick step, cannot be drawn and raises :class:`ContractError`.
    """
    if trace.k_max < 2:
        raise ContractError("plot needs a trace with k_max >= 2")
    ratio_rows = trace.ratios
    finite = np.isfinite(ratio_rows)
    if not finite.any():
        raise ContractError("trace has no finite ratios to plot")

    y_min = float(ratio_rows[finite].min())
    y_max = float(ratio_rows[finite].max())
    if y_min == y_max:
        y_min -= 0.5
        y_max += 0.5
    pad = 0.05 * (y_max - y_min)
    y_min -= pad
    y_max += pad
    if not math.isfinite(y_max - y_min):
        raise ContractError("ratios reach the end of double range; the chart cannot scale them")

    plot_left = _MARGIN_LEFT
    plot_right = width - _MARGIN_RIGHT - _LEGEND_WIDTH
    plot_top = _MARGIN_TOP
    plot_bottom = height - _MARGIN_BOTTOM

    def x_of(k: float) -> float:
        return plot_left + (k - 1.0) / (trace.k_max - 1.0) * (plot_right - plot_left)

    def y_of(value: float) -> float:
        rel = (value - y_min) / (y_max - y_min)
        return plot_bottom - rel * (plot_bottom - plot_top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]

    # Axes with integer k ticks and round-valued ratio ticks.
    axis = "#333333"
    parts += [
        f'<line x1="{plot_left:.2f}" y1="{plot_bottom:.2f}" x2="{plot_right:.2f}" '
        f'y2="{plot_bottom:.2f}" stroke="{axis}" stroke-width="1"/>',
        f'<line x1="{plot_left:.2f}" y1="{plot_top:.2f}" x2="{plot_left:.2f}" '
        f'y2="{plot_bottom:.2f}" stroke="{axis}" stroke-width="1"/>',
    ]
    k_step = max(1, math.ceil((trace.k_max - 1) / 12))
    for k in range(1, trace.k_max + 1, k_step):
        x = x_of(k)
        parts += [
            f'<line x1="{x:.2f}" y1="{plot_bottom:.2f}" x2="{x:.2f}" '
            f'y2="{plot_bottom + 5.0:.2f}" stroke="{axis}" stroke-width="1"/>',
            f'<text x="{x:.2f}" y="{plot_bottom + 18.0:.2f}" font-size="11" '
            f'text-anchor="middle" fill="{axis}">{k}</text>',
        ]
    step = _tick_step(y_max - y_min)
    tick = math.ceil(y_min / step) * step
    while tick <= y_max + min(1e-12, step / 2):
        y = y_of(tick)
        label = f"{round(tick, 10):g}"
        parts += [
            f'<line x1="{plot_left - 5.0:.2f}" y1="{y:.2f}" x2="{plot_left:.2f}" '
            f'y2="{y:.2f}" stroke="{axis}" stroke-width="1"/>',
            f'<line x1="{plot_left:.2f}" y1="{y:.2f}" x2="{plot_right:.2f}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="0.5"/>',
            f'<text x="{plot_left - 9.0:.2f}" y="{y + 3.5:.2f}" font-size="11" '
            f'text-anchor="end" fill="{axis}">{label}</text>',
        ]
        if tick + step == tick:  # the step is lost in rounding; the next tick is this one
            break
        tick += step
    mid_x = (plot_left + plot_right) / 2.0
    mid_y = (plot_top + plot_bottom) / 2.0
    parts += [
        f'<text x="{mid_x:.2f}" y="{height - 10.0:.2f}" font-size="12" '
        f'text-anchor="middle" fill="{axis}">iteration k</text>',
        f'<text x="16.00" y="{mid_y:.2f}" font-size="12" text-anchor="middle" '
        f'fill="{axis}" transform="rotate(-90 16.00 {mid_y:.2f})">power-weakness ratio</text>',
    ]

    legend_x = plot_right + 24.0
    legend_y = plot_top + 8.0
    xs = [f"{x_of(k):.2f}," for k in range(1, trace.k_max + 1)]
    # y_of takes the same IEEE steps on the array as on one float; y_min stands
    # in for the non-finite ratios, which are dropped, so no step can warn
    polylines = _polylines(xs, y_of(np.where(finite, ratio_rows, y_min)), finite)
    for idx, (name, points) in enumerate(zip(trace.labels, polylines)):
        color = _PALETTE[idx % len(_PALETTE)]
        if points:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.6" points="{points}"/>'
            )
        row_y = legend_y + idx * 18.0
        parts.append(
            f'<line x1="{legend_x:.2f}" y1="{row_y:.2f}" x2="{legend_x + 20.0:.2f}" '
            f'y2="{row_y:.2f}" stroke="{color}" stroke-width="2.5"/>'
        )
        parts.append(
            f'<text x="{legend_x + 26.0:.2f}" y="{row_y + 3.5:.2f}" font-size="11" '
            f'fill="{axis}">{_escape(name)}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
