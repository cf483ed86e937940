"""The per-point chart renderer, kept as the oracle for the library's.

It is the renderer as it was before the polylines were formatted by column:
each point calls ``x_of`` and ``y_of`` on one Python float and formats both
coordinates with an f-string.  The library transforms every ratio with one
numpy call, formats each x once per k, and must produce the same bytes.
"""

from __future__ import annotations

import math

import numpy as np

from pwrkit.engine import ContractError, TraceTable
from pwrkit.plotting import (
    _LEGEND_WIDTH,
    _MARGIN_BOTTOM,
    _MARGIN_LEFT,
    _MARGIN_RIGHT,
    _MARGIN_TOP,
    _PALETTE,
    _escape,
    _tick_step,
)


def render_convergence_svg(trace: TraceTable, width: int = 820, height: int = 420) -> str:
    """One polyline per node of r(k) against k, with a colour legend.

    Non-finite sentinel ratios are dropped from their polyline.  A trace with
    no finite ratio at all, or one whose ratios span past double range, cannot
    be drawn and raises :class:`ContractError`.
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
    parts.append(
        f'<line x1="{plot_left:.2f}" y1="{plot_bottom:.2f}" x2="{plot_right:.2f}" '
        f'y2="{plot_bottom:.2f}" stroke="{axis}" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{plot_left:.2f}" y1="{plot_top:.2f}" x2="{plot_left:.2f}" '
        f'y2="{plot_bottom:.2f}" stroke="{axis}" stroke-width="1"/>'
    )
    k_step = max(1, math.ceil((trace.k_max - 1) / 12))
    for k in range(1, trace.k_max + 1, k_step):
        x = x_of(k)
        parts.append(
            f'<line x1="{x:.2f}" y1="{plot_bottom:.2f}" x2="{x:.2f}" '
            f'y2="{plot_bottom + 5.0:.2f}" stroke="{axis}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{plot_bottom + 18.0:.2f}" font-size="11" '
            f'text-anchor="middle" fill="{axis}">{k}</text>'
        )
    step = _tick_step(y_max - y_min)
    tick = math.ceil(y_min / step) * step
    while tick <= y_max + min(1e-12, step / 2):
        y = y_of(tick)
        label = f"{round(tick, 10):g}"
        parts.append(
            f'<line x1="{plot_left - 5.0:.2f}" y1="{y:.2f}" x2="{plot_left:.2f}" '
            f'y2="{y:.2f}" stroke="{axis}" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{plot_left:.2f}" y1="{y:.2f}" x2="{plot_right:.2f}" y2="{y:.2f}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{plot_left - 9.0:.2f}" y="{y + 3.5:.2f}" font-size="11" '
            f'text-anchor="end" fill="{axis}">{label}</text>'
        )
        tick += step
    mid_x = (plot_left + plot_right) / 2.0
    parts.append(
        f'<text x="{mid_x:.2f}" y="{height - 10.0:.2f}" font-size="12" '
        f'text-anchor="middle" fill="{axis}">iteration k</text>'
    )
    mid_y = (plot_top + plot_bottom) / 2.0
    parts.append(
        f'<text x="16.00" y="{mid_y:.2f}" font-size="12" text-anchor="middle" '
        f'fill="{axis}" transform="rotate(-90 16.00 {mid_y:.2f})">power-weakness ratio</text>'
    )

    legend_x = plot_right + 24.0
    legend_y = plot_top + 8.0
    for idx, name in enumerate(trace.labels):
        color = _PALETTE[idx % len(_PALETTE)]
        points = [
            f"{x_of(k):.2f},{y_of(float(ratio_rows[k - 1, idx])):.2f}"
            for k in range(1, trace.k_max + 1)
            if finite[k - 1, idx]
        ]
        if points:
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.6" '
                f'points="{" ".join(points)}"/>'
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
