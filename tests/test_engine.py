"""Iteration engine tests: traces, policies, and convergence reporting."""

from __future__ import annotations

import itertools
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwrkit import (
    CitationMatrix,
    ContractError,
    ConvergenceReport,
    PwrOptions,
    SelfCitations,
    ZeroDivision,
    ZeroWeaknessError,
    column_sums,
    converged_pwr,
    convergence_report,
    jasist_plus_matrix,
    matrix_power_oracle,
    pwr_trace,
    row_sums,
    transpose,
)

from .conftest import build


class TestOptions:
    def test_defaults(self):
        opts = PwrOptions()
        assert opts.k_max == 20
        assert opts.tol == 1e-6
        assert opts.self_citations is SelfCitations.INCLUDE
        assert opts.zero_division is ZeroDivision.ZERO
        assert opts.normalize_each_iteration is True

    def test_string_coercion(self):
        opts = PwrOptions(self_citations="exclude", zero_division="infinite")
        assert opts.self_citations is SelfCitations.EXCLUDE
        assert opts.zero_division is ZeroDivision.INFINITE

    def test_rejects_bad_policy_string(self):
        with pytest.raises(ValueError):
            PwrOptions(self_citations="sometimes")

    def test_rejects_non_positive_k_max(self):
        with pytest.raises(ValueError, match="k_max"):
            PwrOptions(k_max=0)

    def test_rejects_non_positive_tol(self):
        with pytest.raises(ValueError, match="tol"):
            PwrOptions(tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            PwrOptions(tol=tol)


def weighted_matrix(n: int, density: float) -> CitationMatrix:
    """Weights in [0, 10) on a ``density`` share of the cells of n nodes, plus
    ten full rows of weights in [0.5, 10.5): non-integer sums of many terms."""
    rng = np.random.default_rng(n)
    weights = rng.random((n, n)) * 10
    weights[rng.random((n, n)) >= density] = 0.0
    rows = rng.choice(n, min(n, 10), replace=False)
    weights[rows] = rng.random((len(rows), n)) * 10 + 0.5
    return CitationMatrix(tuple(f"J{i}" for i in range(n)), weights)


# dense below DENSE_LIMIT nodes, CSR above it
WEIGHTED = {
    "dense-2": lambda: build("A B", [[1, 3], [2, 2]]),
    "dense-7": lambda: weighted_matrix(7, 1.0),
    "dense-300": lambda: weighted_matrix(300, 1.0),
    "csr-1025": lambda: weighted_matrix(1025, 0.2),
    "csr-1500": lambda: weighted_matrix(1500, 0.1),
}


class TestVectorTraces:
    def test_first_power_vector_is_normalized_row_sums(self):
        z = build("A B", [[1, 3], [2, 2]])
        p1 = pwr_trace(z, PwrOptions(k_max=1)).power_at(1)
        assert p1.tolist() == [0.5, 0.5]

    def test_unnormalized_vectors_match_matrix_powers(self):
        z = build("A B C", [[0, 2, 1], [1, 0, 3], [2, 1, 0]])
        trace = pwr_trace(z, PwrOptions(k_max=4, normalize_each_iteration=False))
        assert trace.powers.shape == trace.weaknesses.shape == trace.ratios.shape == (4, 3)
        for k in range(1, 5):
            oracle = matrix_power_oracle(z, k)
            np.testing.assert_allclose(trace.powers[k - 1], row_sums(oracle), rtol=1e-12)
            np.testing.assert_allclose(trace.weaknesses[k - 1], column_sums(oracle), rtol=1e-12)

    def test_weakness_is_power_of_transpose(self):
        # bit for bit on both storages: each side iterates an array that sums
        # like the other side's stored matrix (a dense .T view does not)
        for name, make in WEIGHTED.items():
            z = make()
            zt = transpose(z)
            for self_citations, normalize in itertools.product(["include", "exclude"], [True, False]):
                opts = PwrOptions(k_max=12, self_citations=self_citations, normalize_each_iteration=normalize)
                trace, flipped = pwr_trace(z, opts), pwr_trace(zt, opts)
                case = f"{name} {self_citations} normalize={normalize}"
                assert trace.weaknesses.tobytes() == flipped.powers.tobytes(), case
                assert trace.powers.tobytes() == flipped.weaknesses.tobytes(), case

    @pytest.mark.parametrize("self_citations, built", [("include", 0), ("exclude", 1)])
    @pytest.mark.parametrize("make", [jasist_plus_matrix, WEIGHTED["csr-1025"]], ids=["dense", "csr"])
    def test_trace_builds_no_transposed_matrix(self, monkeypatch, make, self_citations, built):
        # the one matrix a trace may build is zero_diagonal's, under exclude
        z, made = make(), []
        post_init = CitationMatrix.__post_init__
        monkeypatch.setattr(CitationMatrix, "__post_init__", lambda m: made.append(m) or post_init(m))
        pwr_trace(z, PwrOptions(k_max=3, self_citations=self_citations))
        assert len(made) == built

    def test_power_trace_follows_self_citation_policy(self):
        # row sums are [10, 11] with the diagonal and [1, 2] without it
        z = build("A B", [[9, 1], [2, 9]])
        with_diag = pwr_trace(z, PwrOptions(k_max=1)).power_at(1)
        without = pwr_trace(z, PwrOptions(k_max=1, self_citations="exclude")).power_at(1)
        np.testing.assert_allclose(with_diag, [10 / 21, 11 / 21], rtol=1e-12)
        np.testing.assert_allclose(without, [1 / 3, 2 / 3], rtol=1e-12)

    def test_all_zero_matrix_gives_zero_vectors(self):
        z = build("A B", [[0, 0], [0, 0]])
        trace = pwr_trace(z, PwrOptions(k_max=3))
        assert trace.powers.tolist() == [[0.0, 0.0]] * 3
        assert trace.weaknesses.tolist() == [[0.0, 0.0]] * 3

    def test_empty_matrix_rejected(self):
        z = CitationMatrix((), np.zeros((0, 0)))
        with pytest.raises(ValueError, match="at least one node"):
            pwr_trace(z)


class TestPwrTrace:
    def test_ratio_is_power_over_weakness(self):
        z = build("A B", [[1, 3], [2, 2]])
        trace = pwr_trace(z, PwrOptions(k_max=1))
        # rows [4, 4], columns [3, 5]
        np.testing.assert_allclose(trace.ratio_at(1), [4 / 3, 4 / 5], rtol=1e-12)

    def test_accessors_are_one_based(self):
        z = build("A B", [[1, 3], [2, 2]])
        trace = pwr_trace(z, PwrOptions(k_max=5))
        assert trace.k_max == 5
        assert np.shares_memory(trace.power_at(1), trace.powers[0])
        assert np.shares_memory(trace.ratio_at(5), trace.ratios[4])
        np.testing.assert_array_equal(trace.weakness_at(2), trace.weaknesses[1])

    def test_self_citation_exclusion_drops_diagonal(self):
        z = build("A B", [[9, 1], [2, 9]])
        with_diag = pwr_trace(z, PwrOptions(k_max=1))
        without = pwr_trace(z, PwrOptions(k_max=1, self_citations="exclude"))
        np.testing.assert_allclose(with_diag.ratio_at(1), [10 / 11, 11 / 10], rtol=1e-12)
        np.testing.assert_allclose(without.ratio_at(1), [1 / 2, 2 / 1], rtol=1e-12)

    def test_normalization_does_not_change_ratios(self):
        z = build("A B C", [[1, 2, 0], [0, 1, 3], [2, 0, 1]])
        on = pwr_trace(z, PwrOptions(k_max=6))
        off = pwr_trace(z, PwrOptions(k_max=6, normalize_each_iteration=False))
        for k in range(1, 7):
            np.testing.assert_allclose(on.ratio_at(k), off.ratio_at(k), rtol=1e-9)

    def test_scales_record_the_divisors(self):
        z = build("A B", [[1, 3], [2, 2]])
        trace = pwr_trace(z, PwrOptions(k_max=2))
        assert trace.power_scales[0] == 8.0
        raw = pwr_trace(z, PwrOptions(k_max=2, normalize_each_iteration=False))
        assert raw.power_scales == (1.0, 1.0)

    def test_degenerate_zero_matrix_is_flagged(self):
        trace = pwr_trace(build("A B", [[0, 0], [0, 0]]), PwrOptions(k_max=2))
        assert trace.degenerate
        assert trace.ratio_at(1).tolist() == [0.0, 0.0]

    def test_one_sided_nodes_are_warned_about(self, caplog):
        z = build("A B", [[0, 5], [0, 0]])
        with caplog.at_level(logging.WARNING, logger="pwrkit.engine"):
            pwr_trace(z, PwrOptions(k_max=1))
        text = caplog.text
        assert "cite nothing" in text and "A" in text
        assert "never cited" in text and "B" in text

    def test_one_sided_warning_lists_at_most_ten_labels(self, caplog):
        # node 0 is cited by every other node and cites nothing itself
        n = 500
        rows = np.zeros((n, n))
        rows[0, 1:] = 1.0
        z = CitationMatrix(tuple(f"LONG-JOURNAL-NAME-{i:04d}" for i in range(n)), rows)
        with caplog.at_level(logging.WARNING, logger="pwrkit.engine"):
            pwr_trace(z, PwrOptions(k_max=1))
        never_cited = [r.getMessage() for r in caplog.records if "never cited" in r.getMessage()]
        assert never_cited == [
            "499 node(s) are never cited within the set: "
            + ", ".join(f"LONG-JOURNAL-NAME-{i:04d}" for i in range(1, 11))
            + " (and 489 more)"
        ]
        assert max(len(r.getMessage()) for r in caplog.records) < 400

    def test_overflow_is_degenerate_and_logged_once(self, caplog):
        # grand totals grow like 4^k and leave double range at k = 512
        z = build("A B", [[1, 3], [2, 2]])
        opts = PwrOptions(k_max=600, normalize_each_iteration=False)
        with caplog.at_level(logging.WARNING, logger="pwrkit.engine"):
            trace = pwr_trace(z, opts)
        assert trace.degenerate
        assert np.isfinite(trace.ratio_at(511)).all()
        assert not np.isfinite(trace.ratio_at(600)).any()
        assert caplog.messages == [
            "matrix has an iterate sum that is not finite, first at k=512; "
            "trace flagged as degenerate"
        ]
        assert not pwr_trace(z, PwrOptions(k_max=400, normalize_each_iteration=False)).degenerate


class TestZeroDivisionPolicies:
    # column sums of [[0, 5], [0, 0]] are [0, 5]: the first node cites
    # nothing, so its weakness is zero from k = 1 on

    def test_zero_policy_yields_zero_ratio(self):
        z = build("A B", [[0, 5], [0, 0]])
        trace = pwr_trace(z, PwrOptions(k_max=1, zero_division="zero"))
        assert trace.ratio_at(1)[0] == 0.0

    def test_infinite_policy_yields_inf_sentinel(self):
        z = build("A B", [[0, 5], [0, 0]])
        trace = pwr_trace(z, PwrOptions(k_max=1, zero_division="infinite"))
        assert trace.ratio_at(1)[0] == math.inf
        assert trace.ratio_at(1)[1] == 0.0

    def test_error_policy_raises_with_position(self):
        z = build("A B", [[0, 5], [0, 0]])
        with pytest.raises(ZeroWeaknessError) as excinfo:
            pwr_trace(z, PwrOptions(k_max=1, zero_division="error"))
        assert excinfo.value.label == "A"
        assert excinfo.value.k == 1

    def test_policy_applies_even_when_power_is_zero_too(self):
        # 0/0 follows the same policy as p/0
        z = build("A B", [[0, 0], [0, 0]])
        zero = pwr_trace(z, PwrOptions(k_max=1, zero_division="zero"))
        assert zero.ratio_at(1).tolist() == [0.0, 0.0]
        inf = pwr_trace(z, PwrOptions(k_max=1, zero_division="infinite"))
        assert inf.ratio_at(1).tolist() == [math.inf, math.inf]
        with pytest.raises(ZeroWeaknessError):
            pwr_trace(z, PwrOptions(k_max=1, zero_division="error"))

    def test_zero_weakness_is_a_contract_error_and_no_nodes_is_bad_input(self):
        assert issubclass(ZeroWeaknessError, ContractError)
        assert issubclass(ContractError, ValueError)
        with pytest.raises(ValueError, match="at least one node") as excinfo:
            pwr_trace(CitationMatrix((), np.zeros((0, 0))))
        assert not isinstance(excinfo.value, ContractError)


class TestConvergenceReport:
    def test_requires_two_iterations(self):
        trace = pwr_trace(build("A", [[1]]), PwrOptions(k_max=1))
        report = convergence_report(trace, 0.01)
        assert report == ConvergenceReport((), False, None, (), 0.01)

    def test_single_iteration_still_flags_sentinels(self):
        # same flagged rule as longer traces: any non-finite ratio at any k
        z = build("A B", [[0, 5], [0, 0]])
        for k_max, flagged in ((1, ("A",)), (2, ("A", "B"))):
            trace = pwr_trace(z, PwrOptions(k_max=k_max, zero_division="infinite"))
            assert convergence_report(trace, 0.01).flagged == flagged

    def test_requires_positive_tol(self):
        trace = pwr_trace(build("A", [[1]]), PwrOptions(k_max=3))
        with pytest.raises(ValueError, match="tol"):
            convergence_report(trace, 0.0)
        with pytest.raises(ValueError, match="tol"):
            convergence_report(trace, math.nan)

    def test_constant_trace_converges_at_two(self):
        # all-ones matrix: every ratio is 1 at every k
        z = build("A B C", [[1, 1, 1]] * 3)
        trace = pwr_trace(z, PwrOptions(k_max=5))
        report = convergence_report(trace, 1e-12)
        assert report.deltas == (0.0,) * 4
        assert report.converged
        assert report.k_converged == 2
        assert report.iterations_to_converge == 2

    def test_oscillator_never_converges(self):
        # ratios alternate between [2, 1/2] and [1, 1] forever
        z = build("A B", [[0, 2], [1, 0]])
        trace = pwr_trace(z, PwrOptions(k_max=12))
        report = convergence_report(trace, 1e-3)
        assert not report.converged
        assert report.k_converged is None
        assert min(report.deltas) > 0.4

    def test_delta_at_bounds(self):
        z = build("A B", [[1, 2], [3, 4]])
        trace = pwr_trace(z, PwrOptions(k_max=4))
        report = convergence_report(trace, 1e-6)
        assert report.delta_at(2) == report.deltas[0]
        assert report.delta_at(4) == report.deltas[2]
        with pytest.raises(ValueError):
            report.delta_at(1)
        with pytest.raises(ValueError):
            report.delta_at(5)

    def test_sentinel_entries_are_flagged_and_skipped(self):
        # C is cited but cites nothing, so its weakness stays zero and the
        # infinite policy marks it; the finite nodes still converge
        z = build(
            "A B C",
            [
                [1, 2, 0],
                [2, 1, 0],
                [1, 1, 0],
            ],
        )
        trace = pwr_trace(z, PwrOptions(k_max=10, zero_division="infinite"))
        report = convergence_report(trace, 1e-6)
        assert report.flagged == ("C",)
        assert report.converged
        assert all(math.isfinite(d) for d in report.deltas)

    def test_nilpotent_chain_never_converges(self):
        # A <- B <- C: Z^3 = 0, so every ratio is a policy fill from k = 3 on
        z = build("A B C", [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        zero = convergence_report(pwr_trace(z, PwrOptions(k_max=5)), 1e-6)
        assert zero.deltas[-1] == 0.0
        assert not zero.converged and zero.k_converged is None
        inf = convergence_report(pwr_trace(z, PwrOptions(k_max=5, zero_division="infinite")), 1e-6)
        # k = 2 compares C alone; from k = 3 on no ratio is finite
        assert inf.deltas[0] == 0.0
        assert all(math.isnan(d) for d in inf.deltas[1:])
        assert not inf.converged and inf.k_converged is None
        assert inf.flagged == ("A", "B", "C")

    def test_overflowed_trace_never_converges(self):
        z = build("A B", [[1, 3], [2, 2]])
        trace = pwr_trace(z, PwrOptions(k_max=600, normalize_each_iteration=False))
        report = convergence_report(trace, 1e-6)
        assert math.isnan(report.deltas[-1])
        assert not report.converged and report.k_converged is None
        assert report.flagged == ("A", "B")

    def test_first_delta_below_tol_wins(self, journals):
        trace = pwr_trace(journals, PwrOptions(k_max=20, self_citations="exclude"))
        report = convergence_report(trace, 0.01)
        assert report.k_converged == 7
        assert report.delta_at(7) <= 0.01 < report.delta_at(6)


class TestConvergedPwr:
    def test_returns_vector_at_convergence_point(self):
        z = build("A B C", [[1, 1, 1]] * 3)
        r, report = converged_pwr(z, PwrOptions(k_max=8, tol=1e-9))
        assert report.k_converged == 2
        assert r.tolist() == [1.0, 1.0, 1.0]

    def test_non_convergence_returns_last_vector(self):
        z = build("A B", [[0, 2], [1, 0]])
        opts = PwrOptions(k_max=9, tol=1e-6)
        r, report = converged_pwr(z, opts)
        assert not report.converged
        trace = pwr_trace(z, opts)
        np.testing.assert_array_equal(r, trace.ratio_at(9))

    def test_single_iteration_trace(self):
        z = build("A B", [[1, 3], [2, 2]])
        r, report = converged_pwr(z, PwrOptions(k_max=1))
        assert not report.converged
        assert report.deltas == ()
        np.testing.assert_allclose(r, [4 / 3, 4 / 5], rtol=1e-12)

    def test_degenerate_trace_returns_last_vector(self):
        z = build("A B C", [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        r, report = converged_pwr(z, PwrOptions(k_max=5))
        assert not report.converged
        assert r.tolist() == [0.0, 0.0, 0.0]


def positive_matrices(max_n: int = 6):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
            min_size=n * n,
            max_size=n * n,
        ).map(
            lambda cells: CitationMatrix(
                tuple(f"J{i}" for i in range(n)),
                np.asarray(cells).reshape(n, n),
            )
        )
    )


@settings(max_examples=50, deadline=None)
@given(positive_matrices(), st.sampled_from([0.5, 3.0, 10.0]))
def test_ratios_are_scale_invariant(z, c):
    scaled = CitationMatrix(z.labels, z.to_dense() * c)
    a = pwr_trace(z, PwrOptions(k_max=5))
    b = pwr_trace(scaled, PwrOptions(k_max=5))
    for k in range(1, 6):
        np.testing.assert_allclose(a.ratio_at(k), b.ratio_at(k), rtol=1e-9)


@settings(max_examples=50, deadline=None)
@given(positive_matrices())
def test_transpose_inverts_ratios(z):
    a = pwr_trace(z, PwrOptions(k_max=4))
    b = pwr_trace(transpose(z), PwrOptions(k_max=4))
    for k in range(1, 5):
        np.testing.assert_allclose(b.ratio_at(k), 1.0 / a.ratio_at(k), rtol=1e-9)


@settings(max_examples=50, deadline=None)
@given(positive_matrices())
def test_symmetric_matrix_has_unit_ratios(z):
    sym = CitationMatrix(z.labels, z.to_dense() + z.to_dense().T)
    trace = pwr_trace(sym, PwrOptions(k_max=4))
    for k in range(1, 5):
        np.testing.assert_allclose(trace.ratio_at(k), np.ones(z.n), rtol=1e-9)
