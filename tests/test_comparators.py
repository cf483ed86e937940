"""Baseline metric and correlation tests.

scipy.stats serves as the independent cross-check for the hand-rolled
correlation code, and a dense linear solve validates the iterative ranking
solvers.
"""

from __future__ import annotations

import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import sparse, stats

from pwrkit import (
    CitationMatrix,
    ContractError,
    IterationLimitError,
    MetricVector,
    PwrOptions,
    ZeroWeaknessError,
    align_to,
    citation_factor,
    column_sums,
    compare_rankings,
    comparators,
    hits,
    pagerank,
    pearson,
    pwr_trace,
    read_metric_csv,
    row_sums,
    spearman,
)
from pwrkit.matrix import DENSE_LIMIT

from .conftest import build


def metric(name, labels, values):
    return MetricVector(name, tuple(labels.split()), np.asarray(values, dtype=float))


def chain_matrix() -> tuple[CitationMatrix, np.ndarray]:
    """A CSR chain: J{i + 1} cites J{i} with weight w[i], and J0 cites nothing."""
    n = DENSE_LIMIT + 1
    w = 1.0 + np.arange(n - 1) % 3
    entries = sparse.csr_array((w, (np.arange(n - 1), np.arange(1, n))), shape=(n, n))
    return CitationMatrix(tuple(f"J{i}" for i in range(n)), entries), w


class TestMetricVector:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="2 values for 3 labels"):
            MetricVector("m", ("A", "B", "C"), np.ones(2))

    def test_value_of(self):
        m = metric("m", "A B", [1.5, 2.5])
        assert m.value_of("B") == 2.5
        with pytest.raises(KeyError, match="NOPE"):
            m.value_of("NOPE")

    def test_values_read_only(self):
        m = metric("m", "A B", [1.0, 2.0])
        with pytest.raises(ValueError):
            m.values[0] = 9.0


class TestCitationFactor:
    def test_row_over_column_quotient(self):
        z = build("A B", [[1, 3], [2, 2]])
        cf = citation_factor(z)
        np.testing.assert_allclose(cf.values, row_sums(z) / column_sums(z), rtol=1e-12)

    def test_identical_to_first_iteration(self, journals):
        cf = citation_factor(journals)
        trace = pwr_trace(journals, PwrOptions(k_max=1))
        assert np.array_equal(cf.values, trace.ratio_at(1))

    def test_zero_division_passthrough(self):
        z = build("A B", [[0, 5], [0, 0]])
        assert citation_factor(z).values[0] == 0.0
        assert citation_factor(z, "infinite").values[0] == np.inf
        with pytest.raises(ZeroWeaknessError):
            citation_factor(z, "error")


class TestPagerank:
    def test_sums_to_one(self, journals):
        pr = pagerank(journals)
        assert pr.name == "pagerank"
        assert float(pr.values.sum()) == pytest.approx(1.0, abs=1e-9)
        assert (pr.values > 0).all()

    def test_uniform_on_symmetric_complete(self):
        z = build("A B C", [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        np.testing.assert_allclose(pagerank(z).values, np.full(3, 1 / 3), atol=1e-9)

    def test_matches_dense_linear_solve(self):
        rng = np.random.default_rng(5)
        n = 6
        z = CitationMatrix(
            tuple(f"J{i}" for i in range(n)), rng.integers(0, 10, size=(n, n)).astype(float)
        )
        d = 0.85
        cols = column_sums(z)
        walk = z.to_dense() / np.where(cols == 0.0, 1.0, cols)
        walk[:, cols == 0.0] = 1.0 / n
        expected = np.linalg.solve(
            np.eye(n) - d * walk, np.full(n, (1.0 - d) / n)
        )
        expected /= expected.sum()
        np.testing.assert_allclose(pagerank(z, damping=d).values, expected, atol=1e-8)

    def test_dangling_column_handled(self):
        # B cites nothing: its mass spreads uniformly instead of vanishing
        z = build("A B", [[0, 0], [1, 0]])
        pr = pagerank(z)
        assert float(pr.values.sum()) == pytest.approx(1.0, abs=1e-9)
        assert pr.value_of("B") > pr.value_of("A")

    def test_damping_validation(self):
        z = build("A", [[1]])
        with pytest.raises(ValueError, match="damping"):
            pagerank(z, damping=1.0)

    def test_iteration_limit_carries_last_vector(self, journals):
        with pytest.raises(IterationLimitError) as excinfo:
            pagerank(journals, tol=1e-16, max_iter=3)
        assert excinfo.value.last is not None
        assert len(excinfo.value.last) == journals.n

    def test_iteration_limit_carries_the_first_iterate_on_csr(self):
        # one arc a row and a column, so every product is exact in any summation order
        z, w = chain_matrix()
        n = z.n
        with pytest.raises(IterationLimitError) as excinfo:
            pagerank(z, damping=0.85, max_iter=1)
        walked = np.zeros(n)
        walked[:-1] = (w * (1.0 / w)) * (1.0 / n)
        # J0 cites nothing, so its mass spreads uniformly
        first = 0.85 * (walked + (1.0 / n) / n) + (1.0 - 0.85) / n
        assert np.array_equal(excinfo.value.last, first)

    def test_scale_invariance(self, journals):
        doubled = CitationMatrix(journals.labels, journals.to_dense() * 2.0)
        np.testing.assert_allclose(
            pagerank(journals).values, pagerank(doubled).values, atol=1e-9
        )

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_overflowing_column_sums_are_refused(self, storage):
        # dropping the inf columns would leak their mass: scores summing to 0.15
        n = 2 if storage == "dense" else DENSE_LIMIT + 1
        entries = sparse.csr_array(([1e308, 1e308, 1e308], ([0, 1, 1], [1, 1, 0])), shape=(n, n))
        z = CitationMatrix(tuple(f"J{i}" for i in range(n)), entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="column sums overflow double range"):
                pagerank(z)

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_column_sums_too_small_to_invert_are_refused(self, storage):
        # 1 / 1e-320 overflows, and the walk would be nan from the first step
        n = 2 if storage == "dense" else DENSE_LIMIT + 1
        entries = sparse.csr_array(([1.0, 1e-320], ([0, 1], [1, 0])), shape=(n, n))
        z = CitationMatrix(tuple(f"J{i}" for i in range(n)), entries)
        with pytest.raises(ContractError, match="column sum is too small to invert"):
            pagerank(z)


class TestHits:
    def test_pure_hub_and_authority(self):
        # a single arc: B cites A, so B is the hub and A the authority
        z = build("A B", [[0, 1], [0, 0]])
        hubs, authorities = hits(z)
        assert hubs.name == "hits_hub"
        assert authorities.name == "hits_authority"
        np.testing.assert_allclose(authorities.values, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(hubs.values, [0.0, 1.0], atol=1e-12)

    def test_symmetric_matrix_equalizes_roles(self):
        z = build("A B C", [[0, 2, 1], [2, 0, 1], [1, 1, 0]])
        hubs, authorities = hits(z)
        np.testing.assert_allclose(hubs.values, authorities.values, atol=1e-9)

    def test_unit_sum(self, journals):
        hubs, authorities = hits(journals)
        assert float(hubs.values.sum()) == pytest.approx(1.0, abs=1e-9)
        assert float(authorities.values.sum()) == pytest.approx(1.0, abs=1e-9)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ValueError, match="no citations"):
            hits(build("A B", [[0, 0], [0, 0]]))

    @pytest.mark.parametrize("storage", ["dense", "csr"])
    def test_scores_that_underflow_to_zero_are_refused(self, storage):
        # the one arc passes the no-citations check, but 5e-324 times the
        # starting hub score rounds to 0.0, so no authority score is left
        n = 2 if storage == "dense" else DENSE_LIMIT + 1
        entries = sparse.csr_array(([5e-324], ([0], [1])), shape=(n, n))
        z = CitationMatrix(tuple(f"J{i}" for i in range(n)), entries)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="^authority scores collapsed to zero$"):
                hits(z)

    def test_iteration_limit_carries_the_first_iterates_on_csr(self):
        z, w = chain_matrix()
        n = z.n
        with pytest.raises(IterationLimitError) as excinfo:
            hits(z, max_iter=1)
        authorities = np.zeros(n)
        authorities[:-1] = w * (1.0 / n)
        authorities /= authorities.sum()
        hubs = np.zeros(n)
        hubs[1:] = w * authorities[:-1]
        hubs /= hubs.sum()
        last_hubs, last_authorities = excinfo.value.last
        assert np.array_equal(last_hubs, hubs)
        assert np.array_equal(last_authorities, authorities)
        assert not np.shares_memory(last_hubs, last_authorities)


class TestCorrelations:
    def test_perfect_agreement(self):
        x = metric("x", "A B C", [1, 2, 3])
        assert pearson(x, metric("y", "A B C", [10, 20, 30])) == pytest.approx(1.0)
        assert spearman(x, metric("y", "A B C", [5, 50, 500])) == pytest.approx(1.0)

    def test_perfect_disagreement(self):
        x = metric("x", "A B C", [1, 2, 3])
        y = metric("y", "A B C", [3, 2, 1])
        assert pearson(x, y) == pytest.approx(-1.0)
        assert spearman(x, y) == pytest.approx(-1.0)

    def test_hand_computed_pearson(self):
        # deviations (-1.5, -0.5, 0.5, 1.5) vs (-1.5, 0.5, -0.5, 1.5):
        # covariance 4, both variances 5
        x = metric("x", "A B C D", [1, 2, 3, 4])
        y = metric("y", "A B C D", [1, 3, 2, 4])
        assert pearson(x, y) == pytest.approx(0.8, abs=1e-12)

    def test_hand_computed_spearman_with_swap(self):
        x = metric("x", "A B C D", [1, 2, 3, 4])
        y = metric("y", "A B C D", [1, 3, 2, 4])
        assert spearman(x, y) == pytest.approx(0.8, abs=1e-12)

    def test_spearman_averages_ties(self):
        x = metric("x", "A B C", [1, 1, 2])
        y = metric("y", "A B C", [1, 2, 3])
        assert spearman(x, y) == pytest.approx(np.sqrt(3) / 2, abs=1e-12)

    def test_spearman_ignores_monotone_transform(self):
        x = metric("x", "A B C D", [1, 2, 3, 4])
        y = metric("y", "A B C D", [np.exp(1), np.exp(2), np.exp(3), np.exp(4)])
        assert spearman(x, y) == pytest.approx(1.0)

    def test_zero_variance_rejected(self):
        x = metric("x", "A B", [1, 1])
        with pytest.raises(ValueError, match="zero-variance"):
            pearson(x, metric("y", "A B", [1, 2]))

    @pytest.mark.parametrize(
        "values",
        [[0.1] * 3, [1 / 3] * 10, [-0.0, 0.0, -0.0], [0.0, -0.0, -0.0]],
        ids=["tenth", "third", "negative-zero-first", "zero-first"],
    )
    def test_constant_metric_has_zero_variance(self, values):
        # the means of three 0.1s and of ten 1/3s miss them by a rounding error
        labels = " ".join(f"J{i}" for i in range(len(values)))
        x = metric("x", labels, values)
        y = metric("y", labels, [(7 * i) % len(values) for i in range(len(values))])
        for call in (pearson, spearman):
            for args in ((x, y), (y, x)):
                with pytest.raises(ContractError, match="zero-variance"):
                    call(*args)

    def test_non_finite_rejected(self):
        x = metric("x", "A B", [1, np.inf])
        with pytest.raises(ValueError, match="finite"):
            pearson(x, metric("y", "A B", [1, 2]))

    @pytest.mark.parametrize(
        "values",
        [[1.7e308, 0.0], [1.7e308, 1.7e308, 0.0]],
        ids=["squares", "mean"],
    )
    def test_overflowing_sums_are_refused(self, values):
        # two points in opposite order would otherwise read -0.0, not -1
        labels = " ".join("ABC"[: len(values)])
        x = metric("x", labels, values)
        y = metric("y", labels, list(range(len(values)))[::-1])
        for args in ((x, y), (y, x)):
            with pytest.raises(ContractError, match="correlation inputs overflow double range"):
                pearson(*args)

    def test_spearman_refuses_nan(self):
        # a rank that sorted NaN last would return a coefficient here
        x = metric("x", "A B C", [1, np.nan, 3])
        y = metric("y", "A B C", [1, 2, 3])
        for args in ((x, y), (y, x)):
            with pytest.raises(ContractError, match="correlation inputs must be finite"):
                spearman(*args)

    def test_label_mismatch_lists_offenders(self):
        x = metric("x", "A B", [1, 2])
        y = metric("y", "A C", [1, 2])
        with pytest.raises(ValueError, match="'B'"):
            pearson(x, y)

    def test_needs_two_nodes(self):
        with pytest.raises(ValueError, match="two nodes"):
            pearson(metric("x", "A", [1]), metric("y", "A", [2]))


class TestAlignment:
    def test_align_reorders_values(self):
        ref = metric("ref", "A B C", [0, 0, 0])
        other = metric("m", "C A B", [3, 1, 2])
        aligned = align_to(ref, other)
        assert aligned.labels == ("A", "B", "C")
        assert aligned.values.tolist() == [1.0, 2.0, 3.0]

    def test_align_reversed_20k_labels_quickly(self):
        # label lookups are dict-based: a quadratic scan of 20k labels takes
        # seconds, the linear path tens of milliseconds
        labels = [f"J{i:05d}" for i in range(20_000)]
        ref = MetricVector("ref", labels, np.zeros(len(labels)))
        rows = [f"{name},{i}\n" for i, name in enumerate(labels)]
        text = "label,value\n" + "".join(reversed(rows))
        start = time.perf_counter()
        aligned = align_to(ref, read_metric_csv(text, name="m"))
        elapsed = time.perf_counter() - start
        assert aligned.labels == ref.labels
        assert aligned.values.tolist() == [float(i) for i in range(len(labels))]
        assert elapsed < 1.0

    def test_align_reports_missing_and_extra(self):
        ref = metric("ref", "A B", [0, 0])
        other = metric("m", "A X", [1, 2])
        with pytest.raises(ValueError, match="missing \\['B'\\]"):
            align_to(ref, other)

    @pytest.mark.parametrize("call", [align_to, pearson], ids=["align_to", "pearson"])
    def test_20k_foreign_labels_give_one_bounded_message(self, call):
        ref = metric("ref", "A B", [1, 2])
        foreign = tuple(f"FOREIGN-JOURNAL-{i:05d}" for i in range(20_000))
        other = MetricVector("m", ("A", "B", *foreign), np.arange(20_002.0))
        with pytest.raises(ValueError) as excinfo:
            call(ref, other)
        message = str(excinfo.value)
        assert len(message.encode("utf-8")) < 1024
        assert message.endswith(f"{list(foreign[:10])} (and 19990 more)")

    def test_compare_rankings_table_shape(self):
        x = metric("x", "A B C", [1, 2, 3])
        y = metric("y", "C B A", [1, 5, 9])
        table = compare_rankings([x, y])
        assert len(table) == 2 and len(table[0]) == 2
        assert table[0][0].pearson_r == pytest.approx(1.0)
        assert table[0][1].pearson_r == pytest.approx(table[1][0].pearson_r)
        # y reversed through alignment: perfectly anti-correlated with x
        assert table[0][1].pearson_r == pytest.approx(-1.0)

    def test_compare_rankings_cells_match_pearson_and_spearman(self, monkeypatch):
        rng = np.random.default_rng(3)
        labels = " ".join(f"J{i}" for i in range(40))
        metrics = [metric(f"m{k}", labels, rng.integers(0, 9, 40) * 0.1) for k in range(5)]
        calls = []
        real_rankdata = comparators.rankdata

        def counting_rankdata(values):
            calls.append(len(values))
            return real_rankdata(values)

        monkeypatch.setattr(comparators, "rankdata", counting_rankdata)
        table = compare_rankings(metrics)
        assert len(calls) == len(metrics)
        monkeypatch.setattr(comparators, "rankdata", real_rankdata)
        for i, x in enumerate(metrics):
            for j, y in enumerate(metrics):
                cell = table[i][j]
                assert cell.x is x and cell.y is y
                if i == j:
                    # a metric's own cell is defined, not computed
                    assert (cell.pearson_r, cell.spearman_rho) == (1.0, 1.0)
                    continue
                # bit for bit: repr round-trips every double exactly
                assert repr(cell.pearson_r) == repr(pearson(x, y))
                assert repr(cell.spearman_rho) == repr(spearman(x, y))

    def test_compare_rankings_needs_input(self):
        with pytest.raises(ValueError, match="at least one"):
            compare_rankings([])


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_pearson_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    a = rng.normal(size=n)
    b = rng.normal(size=n)
    labels = " ".join(f"J{i}" for i in range(n))
    ours = pearson(metric("a", labels, a), metric("b", labels, b))
    reference = stats.pearsonr(a, b).statistic
    assert ours == pytest.approx(reference, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_spearman_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    a = rng.integers(0, 6, size=n).astype(float)
    b = rng.integers(0, 6, size=n).astype(float)
    if len(set(a)) < 2 or len(set(b)) < 2:
        return
    labels = " ".join(f"J{i}" for i in range(n))
    ours = spearman(metric("a", labels, a), metric("b", labels, b))
    reference = stats.spearmanr(a, b).statistic
    assert ours == pytest.approx(reference, abs=1e-12)


# Signed zeros, both infinities, the smallest subnormal and values near the
# top of double range; drawn from small pools, so arrays are full of ties.
RANK_SPECIALS = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308]


@st.composite
def rank_inputs(draw):
    pool = draw(
        st.lists(st.sampled_from(RANK_SPECIALS) | st.floats(allow_nan=False), min_size=1, max_size=6)
    )
    n = draw(st.integers(min_value=0, max_value=300))
    values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    if n and draw(st.booleans()):
        values[draw(st.integers(min_value=0, max_value=n - 1))] = np.nan
    return np.array(values, dtype=np.float64)


@settings(max_examples=200, deadline=None)
@given(rank_inputs())
def test_rankdata_matches_scipy_bit_for_bit(values):
    ours = comparators.rankdata(values)
    reference = stats.rankdata(values)
    assert ours.dtype == reference.dtype
    assert ours.tobytes() == reference.tobytes()


@st.composite
def metric_lists(draw):
    """One to five metrics over the same 0-8 labels: plain, constant, near
    the top of double range, or holding one non-finite value."""
    n = draw(st.integers(min_value=0, max_value=8))
    labels = " ".join(f"J{i}" for i in range(n))
    metrics = []
    for k in range(draw(st.integers(min_value=1, max_value=5))):
        kind = draw(st.sampled_from(["plain", "constant", "huge", "non-finite"]))
        if kind == "constant":
            values = [draw(st.floats(allow_nan=False, allow_infinity=False))] * n
        elif kind == "huge":
            pool = st.sampled_from([1.7e308, -1.7e308, 1e308, 0.0, 1.0])
            values = draw(st.lists(pool, min_size=n, max_size=n))
        else:
            plain = st.floats(min_value=-1e6, max_value=1e6)
            values = draw(st.lists(plain, min_size=n, max_size=n))
            if kind == "non-finite" and n:
                at = draw(st.integers(min_value=0, max_value=n - 1))
                values[at] = draw(st.sampled_from([np.inf, -np.inf, np.nan]))
        metrics.append(metric(f"m{k}", labels, values))
    return metrics


def _outcome(call):
    """A call's result, or the type and message of what it raised."""
    try:
        return call()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(metric_lists())
@example([metric("a", "A B C", [1, 2, 4]), metric("b", "A B C", [1, np.inf, 3])])
@example([metric("a", "A B C", [1, 2, 4]), metric("b", "A B C", [3, 3, 3])])
@example([metric("a", "A B C", [1, 2, 4]), metric("b", "A B C", [1.7e308, 0, 0])])
@example([metric("a", "A B C", [1, 2, 4]), metric("b", "A B C", [np.nan, 2, 1])])
@example([metric("a", "A", [1]), metric("b", "A", [np.nan])])
@example([metric("a", "", [])])
def test_compare_rankings_has_the_bits_and_errors_of_pairwise_calls(metrics):
    def pairwise():
        return {
            (i, j): (pearson(metrics[i], metrics[j]), spearman(metrics[i], metrics[j]))
            for i in range(len(metrics))
            for j in range(i + 1, len(metrics))
        }

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        expected = _outcome(pairwise)
        table = _outcome(lambda: compare_rankings(metrics))
    if isinstance(expected, tuple):
        assert table == expected
        return
    for (i, j), (r, rho) in expected.items():
        for cell in (table[i][j], table[j][i]):
            assert (repr(cell.pearson_r), repr(cell.spearman_rho)) == (repr(r), repr(rho))


# Plain values whose nonzero magnitudes stay far from the subnormal range.
MODERATE = st.floats(min_value=-1e6, max_value=1e6).filter(lambda v: v == 0 or abs(v) >= 1e-3)


@st.composite
def scaled_pairs(draw):
    """Two metrics over the same 2-8 labels and a power of two that keeps
    every nonzero value of the first normal."""
    n = draw(st.integers(min_value=2, max_value=8))
    x = draw(st.lists(MODERATE, min_size=n, max_size=n))
    y = draw(st.lists(MODERATE, min_size=n, max_size=n))
    k = draw(st.integers(min_value=0, max_value=1000))
    assume(all(v == 0 or abs(v) * 2.0**-k >= sys.float_info.min for v in x))
    return x, y, k


@settings(max_examples=200, deadline=None)
@given(scaled_pairs())
# at 2**-540 every centred square underflows to 0.0 unless scaled up first;
# both sides give pearson 0.9819805060619655, not a zero-variance error
@example(([0.0, 1.0, 3.0], [0.0, 1.0, 2.0], 540))
def test_correlations_do_not_see_a_power_of_two_scale(case):
    x, y, k = case
    labels = " ".join(f"J{i}" for i in range(len(x)))
    a, b = metric("a", labels, x), metric("b", labels, y)
    small = metric("a", labels, np.asarray(x) * 2.0**-k)
    for correlate in (pearson, spearman):
        ours = _outcome(lambda: correlate(small, b))
        assert repr(ours) == repr(_outcome(lambda: correlate(a, b)))


def test_undefined_results_raise_contract_error():
    a, b = metric("a", "A B", [1.0, 2.0]), metric("b", "A B", [3.0, 3.0])
    cases = [
        (lambda: hits(build("A B", [[0, 0], [0, 0]])), "no citations"),
        (lambda: pearson(metric("a", "A", [1.0]), metric("b", "A", [2.0])), "two nodes"),
        (lambda: spearman(a, b), "zero-variance"),
        (lambda: pearson(a, metric("c", "A B", [1.0, np.inf])), "must be finite"),
        # each pair checks finite values, then overflow, then zero variance
        (lambda: pearson(metric("c", "A B", [1.0, np.inf]), b), "must be finite"),
        (lambda: pearson(metric("h", "A B", [1.7e308, -1.7e308]), b), "overflow double range"),
        (lambda: compare_rankings([]), "at least one metric"),
    ]
    for call, message in cases:
        with pytest.raises(ContractError, match=message):
            call()
    # bad input is a plain ValueError, not a contract violation
    for call, message in [
        (lambda: pagerank(build("A B", [[0, 1], [1, 0]]), damping=2.0), "damping"),
        (lambda: pagerank(CitationMatrix((), np.zeros((0, 0)))), "at least one node"),
        (lambda: hits(CitationMatrix((), np.zeros((0, 0)))), "at least one node"),
        (lambda: pearson(a, metric("c", "A C", [1.0, 2.0])), "labels differ"),
        (lambda: pearson(a, metric("c", "B A", [1.0, 2.0])), "order their labels differently"),
    ]:
        with pytest.raises(ValueError, match=message) as excinfo:
            call()
        assert not isinstance(excinfo.value, ContractError)
