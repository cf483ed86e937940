"""Citation matrix data model and structural matrix operations.

The central type is :class:`CitationMatrix`, a square non-negative weighted
adjacency matrix over labelled journals.  Rows are the cited side, columns the
citing side: ``Z[i][j]`` counts citations from journal ``j`` to journal ``i``.
Matrices up to :data:`DENSE_LIMIT` nodes are stored dense (numpy); larger ones
switch to compressed sparse rows so complete-database-scale inputs stay
tractable.  All operations are pure: they return new objects and never mutate.
A matrix owns its entries on either storage: read-only arrays that no caller
holds, so nothing can change them past validation.  The constructor is the one
place where a sparse input becomes CSR, and canonical: sorted indices, no
duplicates and no stored zeros, so no reader of CSR storage skips a zero; and
int32 ``indices`` and ``indptr`` while the node and entry counts fit int32
(int64 past that), so a matvec reads 4 index bytes an entry, not 8.
:func:`from_arcs` (both readers, :func:`zero_diagonal`) hands scipy its
coordinates in that dtype, so no int64 CSR is built only to be narrowed;
:func:`transpose` and :func:`extract_subgraph` keep their parent's.

Storage is decided here, by the node count: in the constructor and in
:func:`from_arcs`, the one way from arcs, and from either reader's parsed
input, to either storage.  ``entry``, ``==``, :func:`transpose`,
:func:`extract_subgraph`, :func:`zero_diagonal`, both matrix writers and, on
integer weights, ``citation_factor`` give the same bits on either storage.
``pwr_trace``, ``pagerank`` and ``hits`` do not: dense ``@`` runs through
BLAS, whose summation order CSR does not reproduce, so their results differ
in the last bits with the side of :data:`DENSE_LIMIT` a matrix falls on.
Forks stay where one call would differ: :func:`nonzero_arrays`, ``to_dense``
and :func:`from_arcs` keep dense runs on numpy alone (``scipy.sparse`` costs
as much start-up as numpy, so it is imported only when a CSR matrix is built
or used); ``pagerank``'s walk (broadcasting over CSR gives other bits than
``@ diags``) and ``citing_cosine_matrix``'s Gram matrix and norms (another
summation order).
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, TypeAlias

import numpy as np

if TYPE_CHECKING:
    from scipy.sparse import csr_array

# Above this node count matrices are held in CSR form instead of dense arrays.
DENSE_LIMIT = 1024

# The working-set bound of every chunked stage: readers, writers and the graph
# layer hold about this many lines, rows, edges or products at a time.
_CHUNK = 1 << 16

Entries: TypeAlias = "np.ndarray | csr_array"


def _sparse():
    """``scipy.sparse``, imported on the first CSR matrix."""
    from scipy import sparse

    return sparse


def _index_dtype(n: int, nnz: int) -> type[np.signedinteger]:
    """The dtype of CSR ``indices`` and ``indptr`` for n nodes and nnz entries:
    int32 where both fit it, else int64."""
    return np.int32 if max(n, nnz) <= np.iinfo(np.int32).max else np.int64


def _canonical_entries(values: object, n: int) -> Entries:
    """Validate raw entries and store them by node count, read-only and unshared."""
    # no object can be a scipy sparse array before scipy.sparse is loaded
    sparse = sys.modules.get("scipy.sparse")
    if sparse is not None and sparse.issparse(values):
        # copy=True copies a CSR input, whose arrays its caller holds; any other
        # format is converted into new arrays.  Duplicates are summed and zeros
        # dropped first, so the checks below see the entries as stored.
        mat = sparse.csr_array(values, dtype=np.float64, copy=True)
        mat.sum_duplicates()
        mat.eliminate_zeros()
        weights = mat.data
    else:
        mat = weights = np.asarray(values, dtype=np.float64)
    if mat.shape != (n, n):
        raise ValueError(f"entries must be {n}x{n}, got {mat.shape}")
    if not np.isfinite(weights).all():
        raise ValueError("matrix entries must be finite")
    if weights.size and weights.min() < 0.0:
        raise ValueError("matrix entries must be non-negative")
    if n > DENSE_LIMIT:
        mat = _sparse().csr_array(mat)
        index = _index_dtype(n, mat.nnz)
        mat.indptr = mat.indptr.astype(index, copy=False)
        mat.indices = mat.indices.astype(index, copy=False)
        for part in (mat.indptr, mat.indices, mat.data):
            part.flags.writeable = False
        return mat
    mat = mat.copy() if isinstance(mat, np.ndarray) else mat.toarray()
    mat.flags.writeable = False
    return mat


def bounded_list(items: Iterable, count: int, show: Callable[[list], str] = str) -> str:
    """``show`` of the first ten of ``count`` items, then ``(and N more)``:
    a message naming items stays bounded, however many there are."""
    first = list(itertools.islice(items, 10))
    return f"{show(first)} (and {count - len(first)} more)" if count > len(first) else show(first)


def _label_index(labels: tuple[str, ...], label: str) -> int:
    """The position of ``label`` in ``labels``; ``KeyError`` when it is not there."""
    try:
        return labels.index(label)
    except ValueError:
        raise KeyError(f"unknown label: {label!r}") from None


def _check_labels(labels: Sequence[str]) -> tuple[str, ...]:
    out = tuple(labels)
    seen: set[str] = set()
    for name in out:
        if not isinstance(name, str) or not name:
            raise ValueError("labels must be non-empty strings")
        if name in seen:
            raise ValueError(f"duplicate label: {name!r}")
        seen.add(name)
    return out


@dataclass(frozen=True, eq=False)
class CitationMatrix:
    """Square cited-by-citing weight matrix with one label per node.

    The matrix owns its entries: a dense array, or above :data:`DENSE_LIMIT`
    nodes a canonical CSR array (sorted indices, no duplicates, no stored
    zeros, so a ``-0.0`` cell reads as ``0.0``, and int32 index arrays where
    the node and entry counts fit them), read-only and shared with no
    caller.  A CSR input is copied, since its caller still holds its arrays;
    any other input is converted into new arrays.
    """

    labels: tuple[str, ...]
    entries: Entries = field(repr=False)

    def __post_init__(self) -> None:
        labels = _check_labels(self.labels)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", _canonical_entries(self.entries, len(labels)))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def is_sparse(self) -> bool:
        # stored entries are an ndarray or a csr_array, nothing else
        return not isinstance(self.entries, np.ndarray)

    def to_dense(self) -> np.ndarray:
        """Entries as a writable dense array copy."""
        return self.entries.toarray() if self.is_sparse else np.array(self.entries)

    def entry(self, i: int, j: int) -> float:
        return float(self.entries[i, j])

    def index_of(self, label: str) -> int:
        return _label_index(self.labels, label)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CitationMatrix):
            return NotImplemented
        # stored zeros of either sign are not entries, whatever the storage
        return self.labels == other.labels and all(
            map(np.array_equal, nonzero_arrays(self), nonzero_arrays(other))
        )


@dataclass(frozen=True)
class NodeSet:
    """Ordered duplicate-free subset of the nodes of a parent matrix."""

    parent_labels: tuple[str, ...]
    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parent_labels", tuple(self.parent_labels))
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        n = len(self.parent_labels)
        for idx in self.indices:
            if not 0 <= idx < n:
                raise ValueError(f"node index {idx} out of range [0, {n})")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("node set contains duplicate indices")

    @classmethod
    def from_labels(cls, parent: CitationMatrix, names: Sequence[str]) -> NodeSet:
        position = {name: i for i, name in enumerate(parent.labels)}
        # a name the dict lacks goes to index_of, which raises the unknown-label error
        indices = tuple(position[x] if x in position else parent.index_of(x) for x in names)
        _check_labels(names)
        return cls(parent.labels, indices)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.parent_labels[i] for i in self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __repr__(self) -> str:
        labels = bounded_list(map(self.parent_labels.__getitem__, self.indices), len(self))
        return f"NodeSet({len(self)} of {len(self.parent_labels)} nodes: {labels})"


def from_arcs(
    labels: Sequence[str], rows: np.ndarray, cols: np.ndarray, weights: np.ndarray
) -> CitationMatrix:
    """The matrix whose entry (i, j) sums the weights of the 0-based arcs from
    row i to column j.  Repeated arcs add up in the order given up to
    :data:`DENSE_LIMIT` nodes (dense, no scipy), in scipy's ``coo -> csr``
    order above it: the same bits on integer weights or unrepeated arcs."""
    n = len(labels)
    if n > DENSE_LIMIT:
        # coordinates in the stored index dtype, so scipy builds CSR in it
        index = _index_dtype(n, len(weights))
        coords = (rows.astype(index, copy=False), cols.astype(index, copy=False))
        entries = _sparse().coo_array((weights, coords), shape=(n, n))
    else:
        entries = np.zeros((n, n))
        np.add.at(entries, (rows, cols), weights)
    return CitationMatrix(labels, entries)


def transpose(z: CitationMatrix) -> CitationMatrix:
    """Swap the cited and citing roles; labels are preserved."""
    return CitationMatrix(z.labels, z.entries.T)


def zero_diagonal(z: CitationMatrix) -> CitationMatrix:
    """Drop within-journal self-citations (the main diagonal); zeros come out +0.0, never stored."""
    rows, cols, weights = nonzero_arrays(z)
    off = rows != cols
    return from_arcs(z.labels, rows[off], cols[off], weights[off])


def row_sums(z: CitationMatrix) -> np.ndarray:
    """Total times each journal is cited within the set (inf past double range)."""
    with np.errstate(over="ignore"):
        return np.asarray(z.entries.sum(axis=1), dtype=np.float64).ravel()


def column_sums(z: CitationMatrix) -> np.ndarray:
    """Total references each journal gives within the set (inf past double range)."""
    with np.errstate(over="ignore"):
        return np.asarray(z.entries.sum(axis=0), dtype=np.float64).ravel()


def grand_total(z: CitationMatrix) -> float:
    # a sum past double range is inf, reported as such rather than warned about
    with np.errstate(over="ignore"):
        return float(z.entries.sum())


def matvec(z: CitationMatrix, v: Sequence[float] | np.ndarray) -> np.ndarray:
    """Multiply the matrix with a vector of length n."""
    vec = np.asarray(v, dtype=np.float64)
    if vec.shape != (z.n,):
        raise ValueError(f"vector length {vec.shape} does not match n={z.n}")
    return np.asarray(z.entries @ vec, dtype=np.float64).ravel()


def extract_subgraph(z: CitationMatrix, nodes: NodeSet | Sequence[int]) -> CitationMatrix:
    """Restrict the matrix to the given nodes, preserving their order."""
    if isinstance(nodes, NodeSet):
        if nodes.parent_labels != z.labels:
            raise ValueError("node set belongs to a different matrix")
        subset = nodes
    else:
        subset = NodeSet(z.labels, tuple(nodes))
    idx = np.asarray(subset.indices, dtype=np.intp)
    return CitationMatrix(subset.labels, z.entries[np.ix_(idx, idx)])


def nonzero_arrays(z: CitationMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and weights of the nonzero entries in row-major order; on
    CSR storage the columns and weights are the matrix's own read-only arrays."""
    if not z.is_sparse:
        rows, cols = np.nonzero(z.entries)
        return rows, cols, z.entries[rows, cols]
    coo = z.entries.tocoo()
    return coo.row, coo.col, coo.data


def nonzero_entries(z: CitationMatrix) -> Iterator[tuple[int, int, float]]:
    """Yield (row, column, weight) for every nonzero entry in row-major order."""
    rows, cols, weights = nonzero_arrays(z)
    yield from zip(rows.tolist(), cols.tolist(), weights.tolist())


def matrix_power_oracle(z: CitationMatrix, k: int) -> CitationMatrix:
    """Explicit Z^k by repeated dense multiplication.

    This is a deliberately simple reference for validating the iterative
    engine on small instances; weights that overflow double precision raise
    instead of silently saturating.
    """
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    base = z.to_dense()
    result = base.copy()
    # overflow is reported via the explicit raise below, not a warning
    with np.errstate(over="ignore"):
        for _ in range(k - 1):
            result = result @ base
    if not np.isfinite(result).all():
        raise OverflowError(f"matrix power {k} overflows double precision")
    return CitationMatrix(z.labels, result)
