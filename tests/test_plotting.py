"""SVG chart rendering tests."""

from __future__ import annotations

import contextlib
import signal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pwrkit import ContractError, PwrOptions, TraceTable, pwr_trace, render_convergence_svg

from . import reference_plotting
from .conftest import build


@pytest.fixture
def trace():
    z = build("A B C", [[0, 2, 1], [1, 0, 3], [2, 1, 0]])
    return pwr_trace(z, PwrOptions(k_max=8))


def test_produces_well_formed_svg(trace):
    svg = render_convergence_svg(trace)
    assert svg.startswith("<svg xmlns=")
    assert svg.rstrip().endswith("</svg>")
    assert svg.endswith("\n")
    assert 'width="820" height="420"' in svg


def test_one_polyline_per_node(trace):
    svg = render_convergence_svg(trace)
    assert svg.count("<polyline") == 3


def test_legend_names_every_node(trace):
    svg = render_convergence_svg(trace)
    for name in ("A", "B", "C"):
        assert f">{name}</text>" in svg


def test_axis_labels_present(trace):
    svg = render_convergence_svg(trace)
    assert "iteration k" in svg
    assert "power-weakness ratio" in svg


def test_deterministic_output(trace):
    assert render_convergence_svg(trace) == render_convergence_svg(trace)


def test_custom_dimensions(trace):
    svg = render_convergence_svg(trace, width=640, height=300)
    assert 'width="640" height="300"' in svg


def test_label_markup_is_escaped():
    z = build("A&B C", [[0, 2], [1, 0]])
    svg = render_convergence_svg(pwr_trace(z, PwrOptions(k_max=4)))
    assert "A&amp;B" in svg
    assert "A&B" not in svg


def test_rejects_single_iteration():
    z = build("A B", [[0, 2], [1, 0]])
    trace = pwr_trace(z, PwrOptions(k_max=1))
    with pytest.raises(ValueError, match="k_max >= 2"):
        render_convergence_svg(trace)


def test_rejects_all_sentinel_trace():
    z = build("A B", [[0, 0], [0, 0]])
    trace = pwr_trace(z, PwrOptions(k_max=3, zero_division="infinite"))
    with pytest.raises(ValueError, match="no finite ratios"):
        render_convergence_svg(trace)


def test_undrawable_traces_raise_contract_error():
    single = pwr_trace(build("A B", [[0, 2], [1, 0]]), PwrOptions(k_max=1))
    with pytest.raises(ContractError, match="k_max >= 2"):
        render_convergence_svg(single)
    # B's weakness is subnormal, so its k=1 ratio sits near the top of double
    # range and the padded y axis would not be finite
    extreme = pwr_trace(build("A B", [[1, 0], [1, 5.8e-309]]), PwrOptions(k_max=2))
    assert 1.7e308 < extreme.ratio_at(1)[1] < 1.8e308
    with pytest.raises(ContractError, match="end of double range"):
        render_convergence_svg(extreme)


def test_sentinel_series_is_omitted():
    # C cites nothing: under the infinite policy its line has no finite point
    z = build(
        "A B C",
        [
            [1, 2, 0],
            [2, 1, 0],
            [1, 1, 0],
        ],
    )
    trace = pwr_trace(z, PwrOptions(k_max=6, zero_division="infinite"))
    svg = render_convergence_svg(trace)
    assert svg.count("<polyline") == 2


def test_flat_trace_still_renders():
    z = build("A B", [[1, 1], [1, 1]])
    svg = render_convergence_svg(pwr_trace(z, PwrOptions(k_max=5)))
    assert svg.count("<polyline") == 2


def test_fixture_chart_is_stable(journals):
    trace = pwr_trace(journals, PwrOptions(k_max=20, self_citations="exclude"))
    first = render_convergence_svg(trace)
    assert first.count("<polyline") == 7
    assert first == render_convergence_svg(trace)


@contextlib.contextmanager
def within_seconds(seconds: float):
    """Raise TimeoutError in the block once ``seconds`` of wall time have passed."""

    def expire(_signum, _frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def two_by_two(ratios: list[list[float]]) -> TraceTable:
    r = np.array(ratios, dtype=np.float64)
    return TraceTable(("A", "B"), np.ones_like(r), np.ones_like(r), r)


def test_ratios_a_few_ulps_apart_far_from_zero_still_render():
    # the tick step is under half an ulp of the first tick, so adding it
    # leaves the tick where it was; the axis keeps that one tick
    trace = two_by_two([[1e20, np.nextafter(1e20, np.inf)], [1e20, 1e20]])
    with within_seconds(10):
        svg = render_convergence_svg(trace)
    assert svg.count("<polyline") == 2
    assert svg.count('text-anchor="end"') == 1


def test_ratios_far_closer_than_1e_12_stop_at_the_last_tick():
    # the tick loop's slack past y_max is half a step at most, so a step of
    # 5e-301 draws the three ticks of the plot, not every step up to 1e-12
    trace = two_by_two([[1e-300, 2e-300], [1e-300, 2e-300]])
    with within_seconds(10):
        svg = render_convergence_svg(trace)
        assert svg == reference_plotting.render_convergence_svg(trace)
    assert svg.count("<polyline") == 2
    assert svg.count('text-anchor="end"') == 3


@pytest.mark.parametrize("top", [5e-324, 2.5e-323])
def test_subnormal_ratio_span_raises_contract_error(top):
    # a fifth of the span, or its power of ten, underflows to zero
    trace = two_by_two([[-0.0, top], [-0.0, top]])
    with within_seconds(10), pytest.raises(ContractError, match="too close together"):
        render_convergence_svg(trace)


def test_equal_ratios_past_the_widening_raise_contract_error():
    # 1e20 +- 0.5 rounds back to 1e20, so the flat scale has no height
    trace = two_by_two([[1e20, 1e20], [1e20, 1e20]])
    with within_seconds(10), pytest.raises(ContractError, match="too close together"):
        render_convergence_svg(trace)


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=-1e12, max_value=1e12),
    st.one_of(st.just(0.0), st.floats(min_value=1.0, max_value=10.0)),
    st.integers(min_value=-6, max_value=12),
)
def test_the_ratio_axis_gets_two_to_six_ticks(low, mantissa, exponent):
    # the step lies between a fifth and half of the padded span, so the span
    # holds more than two steps and at most five
    span = mantissa * 10.0**exponent
    assume(span >= 1e-9 * max(1.0, abs(low)) if span else abs(low) <= 1e9)
    svg = render_convergence_svg(two_by_two([[low, low + span], [low, low]]))
    assert 2 <= svg.count('text-anchor="end"') <= 6
