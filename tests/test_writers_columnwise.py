"""The trace CSV and chart writers against their per-cell references.

``write_trace_csv`` and ``render_convergence_svg`` format a block of labels
at a time, column by column.  Properties hold them to the row-by-row writer in
``reference_formats`` and the per-point renderer in ``reference_plotting``,
byte for byte, at the default block size and at one so small that every
trace spans several blocks.  The labels hold the characters csv quotes and
SVG escapes, and the values include signed zeros, subnormals, the ends of
double range, nan and infinities.
"""

from __future__ import annotations

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwrkit import TraceTable, formats, plotting, write_trace_csv
from pwrkit.plotting import render_convergence_svg

from . import reference_formats, reference_plotting

# (label, k) cells per block: the default, and one small enough that every
# generated trace spans several blocks.
CHUNKS = [
    pytest.param(formats._CHUNK, id="default"),
    pytest.param(3, id="small-block"),
]

LABEL_CHARS = list('ab,"\r\n&<> ')
SPECIAL_VALUES = [-0.0, 0.0, 5e-324, 1e308, -1e308, math.nan, math.inf, -math.inf, 1.0, 2.5]
VALUES = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(-1e6, 1e6), st.floats())
# Both renderers step their ratio ticks by repeated addition, which never ends
# when the ratios lie within a few ulps of each other far from zero; the
# chart's finite ratios therefore come from a grid of 1/8 besides the specials.
CHART_VALUES = st.one_of(
    st.sampled_from(SPECIAL_VALUES), st.integers(-1000, 1000).map(lambda i: i / 8)
)


@contextlib.contextmanager
def blocks_of(chunk: int):
    with mock.patch.object(formats, "_CHUNK", chunk), mock.patch.object(plotting, "_CHUNK", chunk):
        yield


@st.composite
def traces(draw, min_k: int, values: st.SearchStrategy[float] = VALUES) -> TraceTable:
    n = draw(st.integers(0, 6))
    k_max = draw(st.integers(min_k, 4))
    labels = draw(st.lists(st.text(st.sampled_from(LABEL_CHARS), max_size=3), min_size=n, max_size=n))
    cells = st.lists(values, min_size=k_max * n, max_size=k_max * n)
    arrays = [np.array(draw(cells), dtype=np.float64).reshape(k_max, n) for _ in range(3)]
    return TraceTable(tuple(labels), *arrays)


def chart(render, trace: TraceTable, size: tuple[int, int] = (820, 420)):
    """The chart, or the type and message of the error that refused it."""
    try:
        return render(trace, *size)
    except (ArithmeticError, ValueError) as exc:  # ContractError is a ValueError
        return type(exc), str(exc)


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=200, deadline=None)
@given(trace=traces(min_k=0))
def test_trace_csv_matches_row_by_row_reference(chunk, trace):
    with blocks_of(chunk):
        assert write_trace_csv(trace) == reference_formats.write_trace_csv(trace)


@pytest.mark.parametrize("chunk", CHUNKS)
@settings(max_examples=200, deadline=None)
@given(trace=traces(min_k=2, values=CHART_VALUES), size=st.sampled_from([(820, 420), (640, 300), (300, 66)]))
def test_chart_matches_per_point_reference(chunk, trace, size):
    with blocks_of(chunk):
        assert chart(render_convergence_svg, trace, size) == chart(
            reference_plotting.render_convergence_svg, trace, size
        )


def ratio_trace(ratios: list[list[float]], labels: tuple[str, ...]) -> TraceTable:
    r = np.array(ratios, dtype=np.float64)
    return TraceTable(labels, np.ones_like(r), np.ones_like(r), r)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_column_without_finite_ratio_gets_no_polyline(chunk):
    ratios = [[1.0, math.nan, 2.0], [1.5, math.inf, -0.0], [1.25, -math.inf, 0.5]]
    trace = ratio_trace(ratios, ("A,B", 'C"D', "E&<>\r\n"))
    with blocks_of(chunk):
        svg = render_convergence_svg(trace)
        assert svg == reference_plotting.render_convergence_svg(trace)
        assert write_trace_csv(trace) == reference_formats.write_trace_csv(trace)
    assert svg.count("<polyline") == 2


@pytest.mark.parametrize("chunk", CHUNKS)
def test_all_equal_ratios_take_the_flat_scale(chunk):
    trace = ratio_trace([[0.75, 0.75], [0.75, 0.75], [0.75, 0.75]], ("A", "B"))
    with blocks_of(chunk):
        assert render_convergence_svg(trace) == reference_plotting.render_convergence_svg(trace)


def test_more_labels_than_one_block_at_the_default_size():
    k_max = 3
    n = formats._CHUNK // k_max + 5
    rng = np.random.default_rng(7)
    arrays = rng.lognormal(size=(3, k_max, n))
    arrays[2, rng.integers(0, k_max, 40), rng.integers(0, n, 40)] = math.inf
    labels = tuple(f"J{i}" if i % 97 else f'"J,{i}"\r\n' for i in range(n))
    trace = TraceTable(labels, *arrays)
    assert write_trace_csv(trace) == reference_formats.write_trace_csv(trace)
    assert render_convergence_svg(trace) == reference_plotting.render_convergence_svg(trace)
