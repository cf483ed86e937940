"""Data model and structural operation tests."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from pwrkit import (
    DENSE_LIMIT,
    CitationMatrix,
    NodeSet,
    citation_factor,
    citing_threshold_subset,
    column_sums,
    extract_subgraph,
    grand_total,
    matrix_power_oracle,
    matvec,
    nonzero_entries,
    read_csv_matrix,
    read_pajek,
    row_sums,
    transpose,
    write_csv_matrix,
    write_pajek,
    zero_diagonal,
)
from pwrkit import matrix
from pwrkit.matrix import nonzero_arrays

from . import reference_formats, reference_matrix
from .conftest import build


class TestConstruction:
    def test_small_matrix_is_dense(self):
        z = build("A B", [[1, 2], [3, 4]])
        assert not z.is_sparse
        assert isinstance(z.entries, np.ndarray)

    def test_sparse_input_below_limit_densifies(self):
        z = CitationMatrix(("A", "B"), sparse.csr_array(np.eye(2)))
        assert not z.is_sparse

    def test_large_matrix_is_sparse(self):
        n = DENSE_LIMIT + 1
        labels = tuple(f"J{i}" for i in range(n))
        z = CitationMatrix(labels, sparse.eye(n, format="csr"))
        assert z.is_sparse

    def test_large_dense_input_sparsifies(self):
        n = DENSE_LIMIT + 1
        labels = tuple(f"J{i}" for i in range(n))
        z = CitationMatrix(labels, np.zeros((n, n)))
        assert z.is_sparse

    @pytest.mark.parametrize(
        "make",
        [
            lambda n: sparse.eye_array(n, format="csr"),
            lambda n: sparse.csr_matrix(sparse.eye_array(n)),
            lambda n: sparse.eye_array(n, format="coo"),
            lambda n: sparse.eye_array(n, format="csc"),
        ],
        ids=["csr_array", "csr_matrix", "coo", "csc"],
    )
    def test_sparse_input_is_owned_read_only_csr(self, make):
        n = DENSE_LIMIT + 1
        m = make(n)
        # the caller's arrays: data, then indptr and indices, or COO's coordinates
        held = [m.data, *(m.coords if m.format == "coo" else (m.indptr, m.indices))]
        z = CitationMatrix(tuple(f"J{i}" for i in range(n)), m)
        assert z.entries.format == "csr"
        stored = (z.entries.indptr, z.entries.indices, z.entries.data)
        assert not any(np.shares_memory(a, b) for a in stored for b in held)
        assert not any(part.flags.writeable for part in stored)
        with pytest.raises(ValueError):
            z.entries.data[0] = -5.0
        m.data[0] = -5.0
        assert z.entry(0, 0) == 1.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="2x2"):
            CitationMatrix(("A", "B"), np.zeros((2, 3)))

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="non-negative"):
            build("A B", [[0, -1], [0, 0]])

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            build("A B", [[0, float("nan")], [0, 0]])

    @pytest.mark.parametrize("n", [2, DENSE_LIMIT + 1])
    def test_rejects_repeated_entries_that_sum_past_double_range(self, n):
        # each weight is finite; the entry they add up to is not
        m = sparse.csr_array(([1e308, 1e308], [0, 0], [0, 2] + [2] * (n - 1)), shape=(n, n))
        with pytest.raises(ValueError, match="finite"):
            CitationMatrix(tuple(f"J{i}" for i in range(n)), m)

    def test_rejects_duplicate_label(self):
        with pytest.raises(ValueError, match="duplicate"):
            build("A A", [[0, 0], [0, 0]])

    def test_rejects_empty_label(self):
        with pytest.raises(ValueError, match="non-empty"):
            CitationMatrix(("A", ""), np.zeros((2, 2)))

    def test_entries_are_read_only(self):
        z = build("A B", [[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            z.entries[0, 0] = 9.0

    def test_to_dense_returns_writable_copy(self):
        z = build("A B", [[1, 2], [3, 4]])
        copy = z.to_dense()
        copy[0, 0] = 99.0
        assert z.entry(0, 0) == 1.0


class TestAccessors:
    def test_entry_and_index_of(self):
        z = build("A B C", [[0, 5, 0], [1, 0, 0], [0, 2, 0]])
        assert z.n == 3
        assert z.entry(0, 1) == 5.0
        assert z.index_of("C") == 2

    def test_index_of_unknown_label(self):
        z = build("A B", [[0, 0], [0, 0]])
        with pytest.raises(KeyError, match="NOPE"):
            z.index_of("NOPE")

    def test_equality_ignores_storage_history(self):
        a = build("A B", [[0, 1], [2, 0]])
        b = CitationMatrix(("A", "B"), sparse.csr_array(np.array([[0.0, 1.0], [2.0, 0.0]])))
        assert a == b

    def test_equality_detects_differences(self):
        a = build("A B", [[0, 1], [2, 0]])
        assert a != build("A B", [[0, 1], [2, 1]])
        assert a != build("A X", [[0, 1], [2, 0]])


class TestNodeSet:
    def test_from_labels_preserves_order(self):
        z = build("A B C", [[0] * 3] * 3)
        ns = NodeSet.from_labels(z, ["C", "A"])
        assert ns.indices == (2, 0)
        assert ns.labels == ("C", "A")
        assert len(ns) == 2
        assert list(ns) == [2, 0]

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            NodeSet(("A", "B"), (0, 0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            NodeSet(("A", "B"), (2,))

    def test_repr_of_a_large_parent_stays_bounded(self):
        labels = tuple(f"J{i:06d}" for i in range(100_000))
        text = repr(NodeSet(labels, range(100_000)))
        assert len(text) < 1024
        assert text.startswith("NodeSet(100000 of 100000 nodes: ['J000000',")
        assert text.endswith("'J000009'] (and 99990 more))")
        assert repr(NodeSet(labels, (7, 2))) == "NodeSet(2 of 100000 nodes: ['J000007', 'J000002'])"


class TestOperations:
    def test_transpose_swaps_entries(self):
        z = build("A B", [[0, 7], [1, 0]])
        t = transpose(z)
        assert t.entry(1, 0) == 7.0
        assert t.entry(0, 1) == 1.0
        assert t.labels == z.labels

    def test_zero_diagonal(self):
        z = build("A B", [[3, 7], [1, 4]])
        cleaned = zero_diagonal(z)
        assert cleaned.entry(0, 0) == 0.0
        assert cleaned.entry(1, 1) == 0.0
        assert cleaned.entry(0, 1) == 7.0
        # the original is untouched
        assert z.entry(0, 0) == 3.0

    def test_zero_diagonal_sparse(self):
        n = DENSE_LIMIT + 1
        labels = tuple(f"J{i}" for i in range(n))
        z = CitationMatrix(labels, sparse.eye(n, format="csr") * 2.0)
        cleaned = zero_diagonal(z)
        assert grand_total(cleaned) == 0.0

    def test_sums(self):
        z = build("A B C", [[1, 2, 3], [4, 5, 6], [0, 0, 0]])
        assert row_sums(z).tolist() == [6.0, 15.0, 0.0]
        assert column_sums(z).tolist() == [5.0, 7.0, 9.0]
        assert grand_total(z) == 21.0

    def test_matvec(self):
        z = build("A B", [[1, 2], [3, 4]])
        assert matvec(z, [1.0, 1.0]).tolist() == [3.0, 7.0]

    def test_matvec_dimension_mismatch(self):
        z = build("A B", [[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="length"):
            matvec(z, [1.0, 2.0, 3.0])

    def test_extract_subgraph_preserves_order(self):
        z = build("A B C", [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        sub = extract_subgraph(z, NodeSet.from_labels(z, ["C", "A"]))
        assert sub.labels == ("C", "A")
        assert sub.to_dense().tolist() == [[9.0, 7.0], [3.0, 1.0]]

    def test_extract_subgraph_accepts_indices(self):
        z = build("A B C", [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        sub = extract_subgraph(z, [1])
        assert sub.labels == ("B",)
        assert sub.entry(0, 0) == 5.0

    def test_extract_subgraph_rejects_foreign_node_set(self):
        z = build("A B", [[0, 0], [0, 0]])
        other = NodeSet(("X", "Y"), (0,))
        with pytest.raises(ValueError, match="different matrix"):
            extract_subgraph(z, other)

    def test_nonzero_entries_row_major(self):
        z = build("A B C", [[0, 2, 0], [1, 0, 0], [0, 0, 3]])
        assert list(nonzero_entries(z)) == [(0, 1, 2.0), (1, 0, 1.0), (2, 2, 3.0)]

    def test_nonzero_entries_sparse(self):
        n = DENSE_LIMIT + 1
        labels = tuple(f"J{i}" for i in range(n))
        mat = sparse.coo_array(([5.0, 1.0], ([0, 2], [3, 1])), shape=(n, n)).tocsr()
        z = CitationMatrix(labels, mat)
        assert list(nonzero_entries(z)) == [(0, 3, 5.0), (2, 1, 1.0)]


# Every route to CSR storage, on one network of DENSE_LIMIT + 64 nodes with
# repeated and diagonal arcs: each route gives a matrix and the dense array
# of the entries it must hold.
WIDE_N = DENSE_LIMIT + 64
WIDE_LABELS = tuple(f"J{i}" for i in range(WIDE_N))


def wide_arcs() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    rng = np.random.default_rng(7)
    rows, cols = rng.integers(0, WIDE_N, (2, 4000))
    rows[:50] = cols[:50]
    return rows, cols, rng.integers(1, 9, 4000).astype(np.float64)


def wide_coo():
    rows, cols, weights = wide_arcs()
    return sparse.coo_array((weights, (rows, cols)), shape=(WIDE_N, WIDE_N))


def wide_dense() -> np.ndarray:
    return wide_coo().toarray()  # integer weights: the same sums in any order


def wide_matrix() -> CitationMatrix:
    return matrix.from_arcs(WIDE_LABELS, *wide_arcs())


def int64_csr(dense: np.ndarray):
    m = sparse.csr_array(dense)
    m.indices, m.indptr = m.indices.astype(np.int64), m.indptr.astype(np.int64)
    return m


SUBSET = list(range(WIDE_N - 1, 40, -1))
CSR_ROUTES = {
    "read_pajek": lambda: (read_pajek(write_pajek(wide_matrix())), wide_dense()),
    "read_csv_matrix": lambda: (read_csv_matrix(write_csv_matrix(wide_matrix())), wide_dense()),
    "from_arcs": lambda: (wide_matrix(), wide_dense()),
    "transpose": lambda: (transpose(wide_matrix()), wide_dense().T),
    "zero_diagonal": lambda: (
        zero_diagonal(wide_matrix()),
        wide_dense() * (1.0 - np.eye(WIDE_N)),
    ),
    "extract_subgraph": lambda: (
        extract_subgraph(wide_matrix(), SUBSET),
        wide_dense()[np.ix_(SUBSET, SUBSET)],
    ),
    "int64_csr_input": lambda: (CitationMatrix(WIDE_LABELS, int64_csr(wide_dense())), wide_dense()),
    "coo_input": lambda: (CitationMatrix(WIDE_LABELS, wide_coo()), wide_dense()),
}


@pytest.mark.parametrize("route", CSR_ROUTES)
def test_csr_storage_holds_int32_index_arrays(route):
    z, dense = CSR_ROUTES[route]()
    assert z.is_sparse
    stored = (z.entries.indptr, z.entries.indices, z.entries.data)
    assert [part.dtype for part in stored] == [np.int32, np.int32, np.float64]
    assert not any(part.flags.writeable for part in stored)
    # the same entries as CSR with int64 index arrays, value for value
    expected = int64_csr(dense)
    assert expected.indices.dtype == np.int64
    for got, want in zip(stored, (expected.indptr, expected.indices, expected.data)):
        assert np.array_equal(got, want)


def test_csr_index_width_is_int32_while_nodes_and_entries_fit_it():
    # the int64 side is checked on the rule alone: such a matrix needs 16 GB
    top = np.iinfo(np.int32).max
    assert matrix._index_dtype(DENSE_LIMIT + 1, 0) is np.int32
    assert matrix._index_dtype(top, top) is np.int32
    assert matrix._index_dtype(top + 1, 0) is np.int64
    assert matrix._index_dtype(DENSE_LIMIT + 1, top + 1) is np.int64


class TestMatrixPowerOracle:
    def test_first_power_is_identity_operation(self):
        z = build("A B", [[1, 2], [3, 4]])
        assert matrix_power_oracle(z, 1) == z

    def test_matches_dense_multiplication(self):
        z = build("A B C", [[0, 1, 2], [3, 0, 1], [1, 1, 0]])
        dense = z.to_dense()
        expected = dense @ dense @ dense
        assert np.array_equal(matrix_power_oracle(z, 3).to_dense(), expected)

    def test_rejects_zero_power(self):
        z = build("A", [[1]])
        with pytest.raises(ValueError, match=">= 1"):
            matrix_power_oracle(z, 0)

    def test_overflow_raises(self):
        z = build("A B", [[1e200, 1e200], [1e200, 1e200]])
        with pytest.raises(OverflowError):
            matrix_power_oracle(z, 2)


@st.composite
def citation_matrices(draw, max_n: int = 6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    cells = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=n * n,
            max_size=n * n,
        )
    )
    labels = tuple(f"J{i}" for i in range(n))
    return CitationMatrix(labels, np.asarray(cells).reshape(n, n))


@settings(max_examples=60, deadline=None)
@given(citation_matrices())
def test_transpose_is_an_involution(z):
    assert transpose(transpose(z)) == z
    csr = stored_as_csr(z)
    with csr_storage():
        once, twice = transpose(csr), transpose(transpose(csr))
    assert once.is_sparse and twice.is_sparse
    assert once == transpose(z)
    for attr in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(twice.entries, attr), getattr(csr.entries, attr))


@settings(max_examples=60, deadline=None)
@given(citation_matrices())
def test_transpose_swaps_row_and_column_sums(z):
    assert np.array_equal(row_sums(transpose(z)), column_sums(z))
    assert np.array_equal(column_sums(transpose(z)), row_sums(z))


@settings(max_examples=60, deadline=None)
@given(citation_matrices())
def test_grand_total_matches_both_sum_routes(z):
    assert grand_total(z) == pytest.approx(float(row_sums(z).sum()), rel=1e-12)
    assert grand_total(z) == pytest.approx(float(column_sums(z).sum()), rel=1e-12)


# zeros of both signs, fractions, the largest finite weight and the smallest
# subnormal, among arbitrary finite non-negative weights
WEIGHTS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 3.0, 0.1, 1e308, 5e-324]),
    st.floats(min_value=0.0, max_value=1e308, allow_nan=False),
)


@st.composite
def edge_weight_matrices(draw, max_n: int = 6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    cells = draw(st.lists(WEIGHTS, min_size=n * n, max_size=n * n))
    labels = tuple(f"J{i}" for i in range(n))
    return CitationMatrix(labels, np.asarray(cells, dtype=np.float64).reshape(n, n))


@contextlib.contextmanager
def csr_storage():
    """Every matrix built in the block is held in CSR storage, as one above
    DENSE_LIMIT is."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(matrix, "DENSE_LIMIT", -1)
        yield


def stored_as_csr(z: CitationMatrix) -> CitationMatrix:
    """The same matrix held in CSR storage, as a matrix above DENSE_LIMIT is."""
    with csr_storage():
        return CitationMatrix(z.labels, sparse.csr_array(z.entries))


def stored_cell_by_cell(z: CitationMatrix) -> CitationMatrix:
    """The same matrix built from a CSR input with every cell stored, its
    zeros of either sign included."""
    rows, cols = np.indices((z.n, z.n)).reshape(2, -1)
    coo = sparse.coo_array((z.to_dense().ravel(), (rows, cols)), shape=(z.n, z.n))
    with csr_storage():
        full = CitationMatrix(z.labels, coo.tocsr())
    assert full.entries.nnz == np.count_nonzero(z.to_dense())
    return full


@settings(max_examples=120, deadline=None)
@given(edge_weight_matrices())
def test_dense_nonzero_arrays_match_the_coo_route(z):
    assert not z.is_sparse
    coo = sparse.coo_array(z.entries)
    keep = coo.data != 0.0
    rows, cols, weights = nonzero_arrays(z)
    assert rows.tolist() == coo.row[keep].tolist()
    assert cols.tolist() == coo.col[keep].tolist()
    assert weights.tolist() == coo.data[keep].tolist()
    csr = stored_as_csr(z)
    assert csr.is_sparse
    expected = [rows.tolist(), cols.tolist(), weights.tolist()]
    assert [a.tolist() for a in nonzero_arrays(csr)] == expected


@settings(max_examples=120, deadline=None)
@given(edge_weight_matrices())
def test_writers_emit_the_same_bytes_for_dense_and_csr_storage(z):
    expected = reference_formats.write_csv_matrix(z)
    assert write_csv_matrix(z) == expected
    for csr in (stored_as_csr(z), stored_cell_by_cell(z)):
        assert write_pajek(csr) == write_pajek(z)
        assert write_csv_matrix(csr) == expected


@settings(max_examples=120, deadline=None)
@given(edge_weight_matrices())
def test_entry_reads_every_cell_on_both_storages(z):
    for m in (z, stored_as_csr(z), stored_cell_by_cell(z)):
        cells = [m.entry(i, j) for i, j in np.ndindex(z.n, z.n)]
        assert all(type(cell) is float for cell in cells)
        assert cells == m.to_dense().ravel().tolist()
        assert cells == z.to_dense().ravel().tolist()


@settings(max_examples=120, deadline=None)
@given(edge_weight_matrices(), st.data())
def test_equality_holds_across_storages_and_one_cell_breaks_it(z, data):
    csr, full = stored_as_csr(z), stored_cell_by_cell(z)
    assert z == csr == full == z
    if not z.n:
        return
    i, j = data.draw(st.tuples(st.integers(0, z.n - 1), st.integers(0, z.n - 1)))
    changed = z.to_dense()
    changed[i, j] = 1.0 if changed[i, j] != 1.0 else 2.0
    other = CitationMatrix(z.labels, changed)
    for a in (z, csr, full):
        for b in (other, stored_as_csr(other), stored_cell_by_cell(other)):
            assert a != b and b != a


@settings(max_examples=120, deadline=None)
@given(edge_weight_matrices(), st.data())
def test_extract_subgraph_gives_equal_matrices_on_both_storages(z, data):
    order = data.draw(st.permutations(range(z.n)))
    size = data.draw(st.integers(0, z.n))
    csr = stored_as_csr(z)
    for idx in ([], order[:size], order, list(range(z.n))):
        sub = extract_subgraph(z, idx)
        with csr_storage():
            sub_csr = extract_subgraph(csr, idx)
        assert sub_csr.is_sparse and sub_csr.labels == sub.labels
        assert sub_csr == sub
        assert sub_csr.to_dense().tolist() == z.to_dense()[np.ix_(idx, idx)].tolist()


@st.composite
def raw_csr_arrays(draw, max_n: int = 6):
    """A csr_array as a caller may build it: column indices unsorted and
    repeated within a row, integer or float weights."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = [draw(st.lists(st.integers(0, n - 1), max_size=2 * n)) for _ in range(n)]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    indices = np.array([col for row in rows for col in row], dtype=np.int32)
    weights = draw(st.lists(st.integers(0, 9), min_size=indices.size, max_size=indices.size))
    dtype = draw(st.sampled_from([np.float64, np.int64]))
    return sparse.csr_array((np.array(weights, dtype=dtype), indices, indptr), shape=(n, n))


@settings(max_examples=120, deadline=None)
@given(raw_csr_arrays())
@example(
    sparse.csr_array(
        (np.array([2.0, 4.0, 3.0]), np.array([5, 1, 5]), np.array([0] + [3] * 1100)),
        shape=(1100, 1100),
    )
)
def test_construction_leaves_the_callers_csr_arrays_unchanged(m):
    before = [a.copy() for a in (m.indptr, m.indices, m.data)]
    with csr_storage():
        z = CitationMatrix(tuple(f"J{i}" for i in range(m.shape[0])), m)
    for old, new in zip(before, (m.indptr, m.indices, m.data)):
        assert new.dtype == old.dtype and np.array_equal(new, old)
    assert z.entries.has_canonical_format
    assert z.to_dense().tolist() == m.toarray().tolist()


@st.composite
def integer_weight_matrices(draw, max_n: int = 6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    counts = st.one_of(st.integers(0, 3), st.integers(0, 2**40))
    cells = draw(st.lists(counts, min_size=n * n, max_size=n * n))
    labels = tuple(f"J{i}" for i in range(n))
    return CitationMatrix(labels, np.asarray(cells, dtype=np.float64).reshape(n, n))


@settings(max_examples=120, deadline=None)
@given(integer_weight_matrices(), st.data())
def test_storage_independent_results_are_the_same_bits_on_both_storages(z, data):
    # the set the matrix.py docstring names; pwr_trace, pagerank and hits are
    # not in it, as dense @ and CSR @ sum in different orders
    order = data.draw(st.permutations(range(z.n)))
    idx = order[: data.draw(st.integers(0, z.n))]
    csr = stored_as_csr(z)
    dense = (z, transpose(z), zero_diagonal(z), extract_subgraph(z, idx))
    with csr_storage():
        stored = (csr, transpose(csr), zero_diagonal(csr), extract_subgraph(csr, idx))
        factor = citation_factor(csr)
    for a, b in zip(dense, stored):
        assert not a.is_sparse and b.is_sparse
        assert a == b and b == a
        cells = list(np.ndindex(a.n, a.n))
        assert [b.entry(i, j) for i, j in cells] == [a.entry(i, j) for i, j in cells]
        assert b.to_dense().tobytes() == a.to_dense().tobytes()
        assert write_csv_matrix(b) == write_csv_matrix(a)
        assert write_pajek(b) == write_pajek(a)
    assert factor.values.tobytes() == citation_factor(z).values.tobytes()


@st.composite
def arc_arrays(draw, max_n: int = 6):
    """0-based arcs of an n-node network, as ``read_pajek`` hands them to
    ``from_arcs``: integer weights with arcs repeated (rows of more than 16
    arcs included), or arbitrary weights with no arc repeated."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    if draw(st.booleans()):
        arcs = draw(st.lists(ends, max_size=60))
        weight = st.one_of(st.integers(0, 3), st.integers(0, 2**40)).map(float)
    else:
        arcs = draw(st.lists(ends, unique=True, max_size=n * n))
        weight = WEIGHTS
    weights = draw(st.lists(weight, min_size=len(arcs), max_size=len(arcs)))
    rows, cols = np.array(arcs, dtype=np.int64).reshape(-1, 2).T
    return tuple(f"J{i}" for i in range(n)), rows, cols, np.array(weights, dtype=np.float64)


@settings(max_examples=200, deadline=None)
@given(arc_arrays())
@example(((), np.zeros(0, np.int64), np.zeros(0, np.int64), np.zeros(0)))
@example((("A", "B"), np.zeros(20, np.int64), np.ones(20, np.int64), np.arange(20.0)))
def test_dense_from_arcs_has_the_bits_of_the_csr_route(arcs):
    z = matrix.from_arcs(*arcs)
    assert not z.is_sparse
    assert z.entries.tobytes() == reference_matrix.from_arcs(*arcs).to_dense().tobytes()
    with csr_storage():
        csr, expected = matrix.from_arcs(*arcs), reference_matrix.from_arcs(*arcs)
    assert csr.is_sparse and csr == expected == z
    assert csr.to_dense().tobytes() == z.entries.tobytes()


@settings(max_examples=120, deadline=None)
@given(arc_arrays(), st.lists(st.integers(0, 5), unique=True))
@example(
    (tuple(f"J{i}" for i in range(1100)), np.array([0, 5, 5]), np.array([3, 5, 5]),
     np.array([0.0, -0.0, -0.0])),
    [5, 0, 3],
)
def test_no_route_to_csr_storage_stores_a_zero(arcs, picks):
    z = matrix.from_arcs(*arcs)
    idx = [i for i in picks if i < z.n]
    dense = z.to_dense()
    # every cell stored, the zero cells alternating +0.0 and -0.0
    odd = np.add.outer(np.arange(z.n), np.arange(z.n)) % 2 == 1
    cells = np.where((dense == 0.0) & odd, -0.0, dense)
    rows, cols = np.indices(dense.shape).reshape(2, -1)
    coo = sparse.coo_array((cells.ravel(), (rows, cols)), shape=dense.shape)
    with csr_storage():
        csr = matrix.from_arcs(*arcs)
        routes = [
            (csr, z),
            (transpose(csr), transpose(z)),
            (zero_diagonal(csr), zero_diagonal(z)),
            (extract_subgraph(csr, idx), extract_subgraph(z, idx)),
            *((CitationMatrix(z.labels, m), z) for m in (coo.tocsr(), coo.tocsc(), coo)),
        ]
    for got, expected in routes:
        m = got.entries
        assert got.is_sparse and m.format == "csr" and m.has_canonical_format
        assert (m.data != 0.0).all()
        assert not any(part.flags.writeable for part in (m.indptr, m.indices, m.data))
        assert got == expected and expected == got
        assert got.to_dense().tolist() == expected.to_dense().tolist()
        assert not np.signbit(got.to_dense()).any()


@settings(max_examples=120, deadline=None)
@given(edge_weight_matrices())
def test_zero_diagonal_matches_the_forked_oracle_on_both_storages(z):
    got, expected = zero_diagonal(z), reference_matrix.zero_diagonal(z)
    assert not got.is_sparse and got == expected
    # a -0 cell comes out +0.0, so compare values, not bits
    assert got.to_dense().tolist() == expected.to_dense().tolist()
    assert not np.signbit(got.entries).any()
    for m in (stored_as_csr(z), stored_cell_by_cell(z)):
        with csr_storage():
            got, expected = zero_diagonal(m), reference_matrix.zero_diagonal(m)
        assert got.is_sparse and got == expected == zero_diagonal(z)
        assert got.to_dense().tobytes() == expected.to_dense().tobytes()


@settings(max_examples=120, deadline=None)
@given(edge_weight_matrices(), st.data())
def test_citing_threshold_subset_matches_the_forked_oracle_on_both_storages(z, data):
    if not z.n:
        return
    target = data.draw(st.sampled_from(z.labels))
    min_count = data.draw(st.one_of(WEIGHTS, st.sampled_from([-1.0, -np.inf, np.inf])))
    for m in (z, stored_as_csr(z), stored_cell_by_cell(z)):
        expected = reference_matrix.citing_threshold_subset(m, target, min_count)
        assert citing_threshold_subset(m, target, min_count) == expected
