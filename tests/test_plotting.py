"""SVG chart rendering tests."""

from __future__ import annotations

import pytest

from pwrkit import ContractError, PwrOptions, pwr_trace, render_convergence_svg

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
